// Command benchmark is the repository's real-byte performance
// benchmark. It drives the protocol core, the three fabrics, storage and
// the instrumentation packages from outside, through their public
// functions, in one process; every byte that leaves a source is checked
// at the sink. See README.md for the workloads and metrics.
//
//	bash benchmark/run.sh -workload loop_bulk_1m [-seed 1] [-seconds 10] [-trace 0|1] [-json FILE]
//	bash benchmark/run.sh -workload all
//	bash benchmark/run.sh -workload layers
//	bash benchmark/run.sh -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	opt := defaultOptions()
	name := flag.String("workload", "", "workload to run: one of the seven, `all`, or `layers` (the per-layer stage alone)")
	flag.Int64Var(&opt.seed, "seed", opt.seed, "seed the inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", opt.seconds, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
	jsonOut := flag.String("json", "", "append the run's result to FILE as one JSON line (the input of -compare)")
	flag.StringVar(&opt.outDir, "out", opt.outDir, "directory for traces and temporary files")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: A.jsonl B.jsonl")
	flag.Parse()
	if err := run(*name, opt, *traced != 0, *jsonOut, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, opt options, traced bool, jsonOut string, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case name == "all":
		return runAll(opt, traced, jsonOut)
	case name == "layers":
		layers, err := runLayers(opt.outDir, opt.layerDiv)
		if err != nil {
			return err
		}
		res := &result{Workload: "layers", Seed: opt.seed, Traced: true, Attempted: 1, Env: readEnvironment(), Metrics: layers}
		printResult(os.Stdout, res, layerDefs())
		return appendJSON(jsonOut, res)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v, all, layers)", name, workloadNames())
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var res *result
	var err error
	defs := endToEnd
	if traced {
		res, err = measureTraced(w, opt)
		defs = perLayer()
	} else {
		res, err = measure(w, opt)
	}
	if err != nil {
		return err
	}
	printResult(os.Stdout, res, defs)
	if err := appendJSON(jsonOut, res); err != nil {
		return err
	}
	// The last line of standard output is the driver's: one JSON object.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, make(map[string]value)}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll runs every workload in a process of its own, one after the
// other, so that peak RSS and set-up time belong to one workload alone.
func runAll(opt options, traced bool, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace, "-json", jsonOut, "-out", opt.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// appendJSON appends res to path as one line; an empty path does
// nothing.
func appendJSON(path string, res *result) error {
	if path == "" {
		return nil
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
