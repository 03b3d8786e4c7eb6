// Command bench is the repo's end-to-end benchmark: five workloads driven
// through engine.Run and runsvc.Manager, a fixed set of end-to-end metrics
// per run, output checks, and a separate traced mode that attributes the
// time to layers. See README.md in this directory and BENCHMARK.json at the
// repo root.
//
//	go run ./bench --workload cit-scan --seed 1 --seconds 12 --trace 0
//	go run ./bench --workload cit-scan --trace 1
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	shift    int64
	seconds  float64
	trace    bool
	tiny     bool
	outDir   string // journals, traces and other files the run leaves behind
}

// A run repeats its set-up at least setupRepeats times and for at least
// setupMinSeconds, and setup_s is the median: a millisecond set-up
// (Restaurants) is then a median over hundreds of samples, not five.
const (
	setupRepeats    = 5
	setupMinSeconds = 0.5
)

// box fingerprints the machine; -compare refuses to compare across boxes.
type box struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisBox() box {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return box{CPU: cpu, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// report is one run's full record: what -out appends (one JSON line per
// run) and -compare reads back.
type report struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Trace     bool            `json:"trace"`
	Box       box             `json:"box"`
	Instances []int64         `json:"instances"`
	Order     []int           `json:"order"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// run executes one workload once and returns its report; human-readable
// detail goes to log.
func run(opt options, log io.Writer) (*report, error) {
	w := workloadByName(opt.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	seeds := w.population(opt.shift, opt.tiny)
	order := runOrder(len(seeds), opt.seed)
	resumes := svcResumes
	if opt.tiny {
		resumes = 2
	}
	rep := &report{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Box: thisBox(), Instances: seeds, Order: order, Metrics: map[string]stat{}}
	fmt.Fprintf(log, "workload %s  seed %d  seconds %g  trace %v\n", w.name, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(log, "box: %s, num_cpu %d, GOMAXPROCS %d, %s\n", rep.Box.CPU, rep.Box.NumCPU, rep.Box.GOMAXPROCS, rep.Box.Go)
	if len(seeds) <= 12 {
		fmt.Fprintf(log, "instance seeds %v, run order %v\n", seeds, order)
	} else {
		fmt.Fprintf(log, "%d instance seeds %d..%d, run order %v...\n", len(seeds), seeds[0], seeds[len(seeds)-1], order[:12])
	}

	// Set-up, several times over: input generation for a pipeline workload;
	// journal directory, manager and warm-up jobs for the service.
	var insts []*instance
	var setups []float64
	for spent := 0.0; len(setups) < setupRepeats || (spent < setupMinSeconds && !opt.tiny); {
		var err error
		t0 := now()
		if w.build != nil {
			insts, err = w.buildInstances(seeds, opt.tiny)
		} else {
			err = svcSetup(opt.outDir, seeds, order)
		}
		dt := secondsSince(t0)
		setups = append(setups, dt)
		spent += dt
		if err != nil {
			return nil, err
		}
	}

	o := &outcome{metrics: map[string]stat{}}
	if !opt.trace {
		o.metrics["setup_s"] = summarize("s", setups)
		if w.build != nil {
			timedPipeline(insts, order, opt.seconds, o)
		} else if err := timedService(opt.outDir, seeds, order, resumes, opt.seconds, o); err != nil {
			return nil, err
		}
	} else {
		tr := newTracer()
		m := map[string]float64{}
		if w.build != nil {
			tracedPipeline(insts, order, opt.seed, opt.tiny, tr, o, m)
		} else if err := tracedService(opt.outDir, seeds, order, resumes, tr, o, m); err != nil {
			return nil, err
		}
		for _, spec := range perLayer {
			o.metrics[spec.name] = single(spec.unit, m[spec.name])
		}
		path, err := tr.write(opt.outDir, w.name)
		if err != nil {
			return nil, err
		}
		printLayers(log, tr, path)
	}

	rep.Metrics, rep.Attempted, rep.Failed = o.metrics, o.attempted, o.failed
	rep.Correct = o.failed == 0
	for _, n := range o.notes {
		fmt.Fprintln(log, n)
	}
	printMetrics(log, rep)
	return rep, nil
}

// printLayers prints total and self time per span name. Shares are of the
// root spans' total ("instance" or "runsvc.job").
func printLayers(log io.Writer, tr *tracer, path string) {
	layers := tr.layers()
	root := tr.total("instance") + tr.total("runsvc.job")
	fmt.Fprintf(log, "%d spans written to %s\n", len(tr.spans), path)
	fmt.Fprintf(log, "%-28s %8s %10s %10s %7s\n", "span", "count", "total_s", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(log, "%-28s %8d %10.4f %10.4f %6.1f%%\n", l.name, l.count, l.total, l.self, 100*l.total/root)
	}
}

// printMetrics prints every metric by name with its unit: the value (a
// median when n > 1), min, max and the sample count.
func printMetrics(log io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "%-32s %-6s %14s %14s %14s %5s\n", "metric", "unit", "value", "min", "max", "n")
	for _, n := range names {
		s := rep.Metrics[n]
		fmt.Fprintf(log, "%-32s %-6s %14.6g %14.6g %14.6g %5d\n", n, s.Unit, s.Value, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(log, "attempted %d, failed %d, failed_frac %g\n", rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted))
}

// resultLine is the driver's contract: the last line of standard output,
// exactly these keys, each metric a value with its unit.
func resultLine(rep *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for n, s := range rep.Metrics {
		metrics[n] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// appendReport appends the run's full record to path as one JSON line.
func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var opt options
	var trace int
	var out string
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: all, one after the other): "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: fixes the order instances and jobs run in, and the probe samples of the traced run")
	flag.Int64Var(&opt.shift, "shift", 0, "add this to every instance seed: a fresh population, not comparable with the recorded baseline")
	flag.Float64Var(&opt.seconds, "seconds", 12, "measure whole passes until this many seconds are measured")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json instead of the end-to-end metrics")
	flag.BoolVar(&opt.tiny, "tiny", false, "smoke sizes: every workload at a fraction of its size")
	flag.StringVar(&opt.outDir, "dir", "bench/out", "directory for journals and traces (created; journals are removed after each pass)")
	flag.StringVar(&out, "out", "", "append each run's full record to this file as one JSON line (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	flag.Parse()
	opt.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	names := workloadNames()
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	failed := false
	for _, name := range names {
		opt.workload = name
		rep, err := run(opt, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if out != "" {
			if err := appendReport(out, rep); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
		}
		fmt.Println(resultLine(rep))
		failed = failed || !rep.Correct
	}
	if failed {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
