// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed on the simulated SCRAMNet cluster, checks every
// delivered result, and prints every metric by name with its unit: the
// modelled cluster's virtual time and the Go simulator's host cost.
//
//	go run . --workload pingpong-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from a second pass over the same schedule with every
// endpoint wrapped in a span recorder and the cluster's metrics registry
// and kernel profiler installed. Notes, the simulated-statistics digest
// and the span file's path go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "minimum host seconds spent measuring (untraced runs repeat the schedule until then)")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	out := fs.String("out", defaultOut(), "directory for the span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v and --trace 0 or 1\n", workloadNames())
		return 2
	}
	res, err := measure(w, *seed, *seconds, *traceOn == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	if res.spans != nil {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		path := filepath.Join(*out, "spans-"+w.name+".tsv")
		if err := res.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(res.spans.spans), path)
	}
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "perfbench: INCORRECT: %s\n", p)
		}
		return 1
	}
	return 0
}

func defaultOut() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
