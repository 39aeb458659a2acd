// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated testbeds, plus the ablations
// catalogued in DESIGN.md.
//
// Usage:
//
//	experiments [-scale f] [-csv file] [-json file] <experiment>|all
//
// Experiments: table1, fig3a, fig3b, fig4a, fig4b, fig8, fig9, fig10,
// fig11, ablation-credit, ablation-qps, ablation-depth,
// ablation-loaddepth, ablation-ramp, ablation-creditbatch,
// ablation-pullmode.
//
// -scale 1.0 runs report-quality sizes (tens of GB per point; minutes of
// CPU); the default 0.25 keeps a full sweep under a minute.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rftp/internal/bench"
)

var experimentNames = []string{
	"table1", "fig3a", "fig3b", "fig4a", "fig4b",
	"fig8", "fig9", "fig10", "fig11",
	"ablation-credit", "ablation-qps", "ablation-depth", "ablation-loaddepth", "ablation-ramp", "ablation-creditbatch",
	"ablation-notify", "ablation-threads", "ablation-mrcache", "ablation-sessions",
	"ablation-pullmode",
	"cross-arch", "scale-out", "latency", "timeseries",
}

func main() {
	scale := flag.Float64("scale", 0.25, "experiment size scale factor (1.0 = report quality)")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <experiment>|all\nexperiments: %v\n", experimentNames)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	which := flag.Arg(0)
	sc := bench.Scale(*scale)

	var all []bench.Row
	run := func(name string) {
		rows, err := runExperiment(name, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		if name == "table1" || name == "timeseries" {
			return // printed directly
		}
		fmt.Printf("\n== %s ==\n", name)
		bench.WriteTable(os.Stdout, rows)
		all = append(all, rows...)
	}

	if which == "all" {
		for _, name := range experimentNames {
			run(name)
		}
	} else {
		run(which)
	}

	if *csvPath != "" && len(all) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := bench.WriteCSV(f, all); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nCSV written to %s\n", *csvPath)
	}
	if *jsonPath != "" && len(all) > 0 {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := bench.WriteJSON(f, all); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nJSON written to %s\n", *jsonPath)
	}
}

func runExperiment(name string, sc bench.Scale) ([]bench.Row, error) {
	switch name {
	case "table1":
		fmt.Println("== Table I: testbed description ==")
		return nil, bench.WriteTable1(os.Stdout)
	case "fig3a":
		return bench.FigSemantics("fig3a", bench.RoCELAN(), 1, sc)
	case "fig3b":
		return bench.FigSemantics("fig3b", bench.RoCELAN(), 64, sc)
	case "fig4a":
		return bench.FigSemantics("fig4a", bench.IBLAN(), 1, sc)
	case "fig4b":
		return bench.FigSemantics("fig4b", bench.IBLAN(), 64, sc)
	case "fig8":
		return bench.FigComparison("fig8", bench.RoCELAN(), []int{1, 8}, sc)
	case "fig9":
		return bench.FigComparison("fig9", bench.IBLAN(), []int{1, 8}, sc)
	case "fig10":
		return bench.FigComparison("fig10", bench.RoCEWAN(), []int{1, 8}, sc)
	case "fig11":
		return bench.FigMemVsDisk(bench.RoCEWAN(), sc)
	case "ablation-credit":
		return bench.AblationCreditPolicy(sc)
	case "ablation-qps":
		return bench.AblationQPCount(bench.RoCEWAN(), sc)
	case "ablation-depth":
		return bench.AblationIODepth(bench.RoCEWAN(), sc)
	case "ablation-loaddepth":
		return bench.AblationLoadDepth(bench.RoCEWAN(), sc)
	case "ablation-ramp":
		return bench.AblationCreditRamp(bench.RoCEWAN(), sc)
	case "ablation-creditbatch":
		return bench.AblationCreditBatch(bench.RoCEWAN(), sc)
	case "ablation-notify":
		return bench.AblationNotify(bench.RoCEWAN(), sc)
	case "ablation-threads":
		return bench.AblationThreading(bench.RoCELAN(), sc)
	case "ablation-mrcache":
		return bench.AblationMRCache(sc)
	case "ablation-sessions":
		return bench.AblationSessions(sc)
	case "ablation-pullmode":
		return bench.AblationPullMode(sc)
	case "cross-arch":
		return bench.CrossArch(sc)
	case "scale-out":
		return bench.ScaleOut(sc)
	case "latency":
		return bench.LatencyTable(bench.RoCELAN(), sc)
	case "timeseries":
		fmt.Println("== bandwidth over time, cold start (RoCE WAN, 4M blocks, 4 streams) ==")
		ts, err := bench.TimeSeries(bench.RoCEWAN(), 10*time.Second, 500*time.Millisecond, 4<<20, 4)
		if err != nil {
			return nil, err
		}
		return nil, ts.Render(os.Stdout)
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
