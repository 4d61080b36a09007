// Command benchmark is the repository's benchmark: six named workloads, four
// end-to-end metrics measured with tracing off, and a traced mode that
// replays one segment of each workload into every layer's public API and
// prints the per-layer budget. README.md in this directory says why each
// workload exists and how to read the output.
//
//	go run ./benchmark                         every workload, tracing off
//	go run ./benchmark -traced                 every workload, per-layer budget
//	go run ./benchmark -workload server.read   one workload, in this process
//	go run ./benchmark -agree A.json B.json    compare two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traced   bool
	scale    string
	runs     int
	outDir   string
	out      string
	result   string
	agree    bool
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 12, "nominal run length; fixes each workload's operation count")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	flag.BoolVar(&o.traced, "traced", false, "same as -trace 1")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny for the test suite")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: run every workload this many times, on seeds seed, seed+1, ...")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for temporary databases and trace files")
	flag.StringVar(&o.out, "out", "", "write every workload's result to this JSON file (input of -agree)")
	flag.StringVar(&o.result, "result", "", "with -workload: also write the full result to this file")
	flag.BoolVar(&o.agree, "agree", false, "compare two -out files given as arguments; exit 1 if they disagree")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "with -agree: the file holding the regression bounds")
	flag.Parse()
	if o.trace == 1 {
		o.traced = true
	}

	var err error
	switch {
	case o.agree:
		err = agreeMain(o.spec, flag.Args())
	case o.workload != "":
		err = childMain(&o)
	default:
		err = parentMain(&o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o *options) sizes() (sizes, error) {
	switch o.scale {
	case "full":
		return fullSizes, nil
	case "tiny":
		return tinySizes, nil
	}
	return sizes{}, fmt.Errorf("unknown -scale %q", o.scale)
}

// runWorkload measures one workload in this process.
func runWorkload(o *options) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz, err := o.sizes()
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seconds := float64(o.seconds)
	if sz.seconds > 0 {
		seconds = sz.seconds
	}
	e := &env{sz: sz, seed: o.seed, seconds: seconds, segOps: segOpsFor(w.rate, w.callers, seconds), callers: w.callers, dir: dir}
	if o.traced {
		return runTraced(w, e, filepath.Join(o.outDir, w.name+".trace.json"))
	}
	return runUntraced(w, e)
}

// childMain runs one workload and prints its metrics; the last line of
// standard output is the driver's JSON object.
func childMain(o *options) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if o.result != "" {
		if err := writeJSON(o.result, res); err != nil {
			return err
		}
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, m := range res.Metrics {
		last.Metrics[name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a check did not hold: %s", res.Workload, res.Failed, res.Attempted, res.FirstError)
	}
	return nil
}

// parentMain runs every workload, each in a child process of its own so that
// heap and GC state never leak from one workload into the next. With -runs N
// it goes round the workloads N times, a new seed each round, so that one
// set of runs spans enough time for -agree to compare medians.
func parentMain(o *options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var all []*result
	var failed []string
	for r := 0; r < o.runs; r++ {
		for _, w := range workloads {
			resFile := filepath.Join(o.outDir, fmt.Sprintf("result-%d-%s.json", os.Getpid(), w.name))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed + int64(r)), "-seconds", fmt.Sprint(o.seconds),
				"-scale", o.scale, "-outdir", o.outDir, "-result", resFile}
			if o.traced {
				args = append(args, "-traced")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var res result
			readErr := readJSON(resFile, &res)
			os.Remove(resFile)
			if readErr == nil {
				all = append(all, &res)
			}
			if runErr != nil || readErr != nil {
				failed = append(failed, w.name)
			}
			fmt.Println()
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// printResult prints every metric by name with its unit.
func printResult(f *os.File, r *result) {
	mode := "tracing off"
	if r.Traced {
		mode = "traced, per layer"
	}
	fmt.Fprintf(f, "== %s (%s) seed=%d scale=%s segment_ops=%d callers=%d nproc=%d GOMAXPROCS=%d %s commit=%s tempfs=%s\n",
		r.Workload, mode, r.Env.Seed, r.Env.Scale, r.Env.SegmentOps, r.Env.Callers, r.Env.NumCPU, r.Env.GOMAXPROCS,
		r.Env.GoVersion, r.Env.Commit, r.Env.TempDirFS)
	fmt.Fprintf(f, "%-26s %14d\n%-26s %14d\n", "attempted_ops", r.Attempted, "failed_ops", r.Failed)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		if r.Traced {
			fmt.Fprintf(f, "%-26s %14.4f %-6s [%s] moves: %s\n", d.name, m.Value, m.Unit, d.layer, d.moves)
		} else {
			fmt.Fprintf(f, "%-26s %14.4f %-6s median of %d (min %.4f, max %.4f)\n", d.name, m.Value, m.Unit, m.N, m.Min, m.Max)
		}
	}
	names := make([]string, 0, len(r.Diagnostics))
	for name := range r.Diagnostics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Diagnostics[name]
		fmt.Fprintf(f, "%-26s %14.4f %-6s (diagnostic)\n", name, m.Value, m.Unit)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(f, "budget: %-24s %10s %14s %8s\n", "layer", "calls/op", "self us/op", "share")
		for _, b := range r.Budget {
			fmt.Fprintf(f, "budget: %-24s %10.3f %14.3f %7.1f%%\n", b.Layer, b.CallsPerOp, b.SelfUsOp, b.Share*100)
		}
	}
	if r.FirstError != "" {
		fmt.Fprintf(f, "first error: %s\n", r.FirstError)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
