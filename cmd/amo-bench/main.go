// Command amo-bench runs the reproduction experiment suite E1–E9 (one
// experiment per theorem of Kentros & Kiayias 2011/2013; see DESIGN.md §4)
// and prints the result tables as Markdown. EXPERIMENTS.md is generated
// from this output. It exits nonzero when an experiment's check fails.
//
// Performance is measured elsewhere: `go run ./bench` is the benchmark
// of record (workloads, oracle and metrics in bench/README.md). -pair
// runs two built bench binaries, a parent's and a change's, alternately
// and judges the change by bench/README.md's "Claiming a gain", at each
// GOMAXPROCS given, or with -trace 1 on the workload's per-layer
// metrics; run it from the directory that holds BENCHMARK.json.
//
// Usage:
//
//	amo-bench [-quick] [-only E3]
//	amo-bench -pair PARENT_BIN CHANGE_BIN -workload W [-n 10] [-seed S] [-seconds 10] [-gomaxprocs N[,M…]] [-trace 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"atmostonce/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amo-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "-pair" {
		return pairMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("amo-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run reduced sweeps")
	only := fs.String("only", "", "run a single experiment (E1..E9)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // the usage is already printed; asking for it is not a failure
		}
		return err
	}
	if fs.NArg() != 0 {
		// Parsing stops at the first non-flag word, so everything after
		// it would be silently ignored.
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	s := harness.Suite{Quick: *quick}
	experiments := map[string]func() *harness.Table{
		"E1": s.E1Effectiveness,
		"E2": s.E2Bounds,
		"E3": s.E3Work,
		"E4": s.E4Collisions,
		"E5": s.E5Iterative,
		"E6": s.E6WriteAll,
		"E7": s.E7Comparison,
		"E8": s.E8Crossover,
		"E9": s.E9Verification,
	}

	fmt.Fprintf(stdout, "# At-most-once reproduction suite (%s mode)\n\n", mode(*quick))
	start := time.Now()
	var tables []*harness.Table
	if *only != "" {
		fn, ok := experiments[strings.ToUpper(*only)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want E1..E9)", *only)
		}
		tables = append(tables, fn())
	} else {
		tables = s.All()
	}
	failed := 0
	for _, t := range tables {
		fmt.Fprint(stdout, t.Markdown())
		if !t.Pass {
			failed++
		}
	}
	fmt.Fprintf(stdout, "---\n\nSuite finished in %s; %d/%d experiments passed.\n",
		time.Since(start).Round(time.Millisecond), len(tables)-failed, len(tables))
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}

func mode(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}
