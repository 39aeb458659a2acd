// Command rftplint runs RFTP's custom static-analysis suite over the
// module: fsmtransition, bufownership, loopconfine, blockleak,
// msgexhaustive, and fsmlive (see internal/analysis for what each
// enforces and why).
//
// Usage:
//
//	rftplint [-tags taglist] [-allows] [-strict-allows] [-json] [-list] [packages...]
//
// Patterns default to ./... resolved against the current directory.
// Findings print as file:line:col: [pass] message and any finding makes
// the exit status 1. Suppressions (//lint:allow pass justification)
// drop the finding; -allows prints every suppression in force so stale
// ones stay visible, and -strict-allows promotes stale suppressions —
// comments whose pass ran but matched nothing, or that name no pass —
// to failures, so a fixed finding takes its excuse with it. -json emits
// the findings and suppressions as a JSON report on stdout for CI
// artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rftp/internal/analysis"
)

// jsonReport is the -json output shape, consumed by CI.
type jsonReport struct {
	Findings     []jsonFinding     `json:"findings"`
	Suppressions []jsonSuppression `json:"suppressions"`
	Stale        []jsonSuppression `json:"stale_suppressions"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

type jsonSuppression struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Used     bool   `json:"used"`
}

func main() {
	var (
		tags    = flag.String("tags", "", "comma-separated build tags for loading (e.g. rftpdebug)")
		allows  = flag.Bool("allows", false, "also print //lint:allow suppressions in force")
		strict  = flag.Bool("strict-allows", false, "fail on stale suppressions (pass ran, nothing matched)")
		jsonOut = flag.Bool("json", false, "emit findings and suppressions as JSON on stdout")
		list    = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rftplint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}

	pkgs, err := analysis.Load("", tagList, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stale := res.Stale(analysis.All())

	if *jsonOut {
		rep := jsonReport{
			Findings:     []jsonFinding{},
			Suppressions: []jsonSuppression{},
			Stale:        []jsonSuppression{},
		}
		for _, f := range res.Findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Analyzer: f.Analyzer, File: f.Pos.Filename,
				Line: f.Pos.Line, Col: f.Pos.Column, Message: f.Message,
			})
		}
		for _, s := range res.Suppressions {
			rep.Suppressions = append(rep.Suppressions, suppressionJSON(s))
		}
		for _, s := range stale {
			rep.Stale = append(rep.Stale, suppressionJSON(s))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		if *allows {
			for _, s := range res.Suppressions {
				reason := s.Reason
				if reason == "" {
					reason = "(no justification)"
				}
				fmt.Printf("%s: allow %s: %s\n", s.Pos, s.Analyzer, reason)
			}
		}
		for _, f := range res.Findings {
			fmt.Println(f)
		}
		if *strict {
			for _, s := range stale {
				fmt.Printf("%s: stale suppression: allow %s matched no finding (fix shipped? remove the comment)\n",
					s.Pos, s.Analyzer)
			}
		}
	}

	failed := len(res.Findings) > 0
	if *strict && len(stale) > 0 {
		failed = true
	}
	if failed {
		fmt.Fprintf(os.Stderr, "rftplint: %d finding(s), %d stale suppression(s)\n", len(res.Findings), len(stale))
		os.Exit(1)
	}
}

func suppressionJSON(s analysis.Suppression) jsonSuppression {
	return jsonSuppression{
		File: s.Pos.Filename, Line: s.Pos.Line,
		Analyzer: s.Analyzer, Reason: s.Reason, Used: s.Used,
	}
}
