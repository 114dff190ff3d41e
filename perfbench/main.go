// Command perfbench is the repository's benchmark: it runs one named
// workload against the aggregator from a single process, checks that the
// program's outputs are correct, and prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) as the last line of standard
// output. METRICS.md in this directory describes the workloads and
// metrics; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload metro-oneshot --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every workload to a few slots' worth of work (the
	// smoke test); the metrics keep their names and meaning.
	tiny bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	// problems lists every failed correctness check.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(o options, tr *tracer) (*outcome, error)
	// headline is the end-to-end metric the tracing overhead is taken on.
	headline string
}

var workloads = []workload{
	{"metro-oneshot", runMetro, "slot_ms_p50"},
	{"serve-stream", runServe, "final_ms_p50.high"},
	{"cluster-continuous", runCluster, "slot_ms_p50"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: metro-oneshot, serve-stream or cluster-continuous")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory trace dumps are written to")
	flag.Parse()
	o.trace = traceFlag == 1
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	res, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs the workload (twice in the traced mode: untraced, then
// traced, each for half the time, so the tracing overhead is measured)
// and assembles the result record.
func execute(w workload, o options) (*result, error) {
	prov, err := provenance(o)
	if err != nil {
		return nil, err
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	defs := endToEnd
	var out *outcome
	if !o.trace {
		if out, err = w.run(o, nil); err != nil {
			return nil, err
		}
	} else {
		defs = perLayer
		half := o
		half.seconds = o.seconds / 2
		base, err := w.run(half, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		if out, err = w.run(half, tr); err != nil {
			return nil, err
		}
		out.attempted += base.attempted
		out.failed += base.failed
		out.problems = append(base.problems, out.problems...)
		out.problems = append(out.problems, tr.checkStages()...)
		b := base.e2e[w.headline]
		out.layer["trace.overhead_pct"] = ratio(out.e2e[w.headline]-b, b) * 100
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed))
		if err := tr.dump(path); err != nil {
			return nil, fmt.Errorf("trace dump: %w", err)
		}
		tr.report(os.Stderr, path)
		fmt.Fprintf(os.Stderr, "trace: overhead %.2f%% on %s (untraced %.3f, traced %.3f)\n",
			out.layer["trace.overhead_pct"], w.headline, b, out.e2e[w.headline])
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	values := out.e2e
	if o.trace {
		values = out.layer
	}
	res := &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// provenance describes where and on what a result was measured.
func provenance(o options) (map[string]any, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, fmt.Errorf("hashing sources: %w", err)
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"trace":          o.trace,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_revision":   rev,
		"source_sha256":  digest,
		"calibration_ms": calibrate(),
	}, nil
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden directories and build output), so a result names the code it
// measured even where the checkout carries no version-control metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", errors.New("no Go sources found; run from the repository root")
	}
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
