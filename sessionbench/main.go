// Command sessionbench is the repository's end-to-end benchmark. It runs
// whole STAT sessions — core.New then Tool.Run — on four paper-shaped
// BG/L workloads, checks every gather against a reference run of the same
// seed, and prints end-to-end metrics by name and unit. A traced run
// (--trace 1) gives per-layer metrics from the program's telemetry frames
// and from a layer replay that times calls into each layer's public
// functions.
//
// Load is a closed loop from one process with one client: the next
// session starts only after the previous one returns. One untimed
// warm-up session runs first, and sessions during which the hypervisor
// stole much of the host's CPU are checked but not timed. GOMAXPROCS is
// capped at the number of usable CPUs and recorded with the other host
// fields; results from different hosts are not comparable, and --compare
// refuses them.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash sessionbench/run.sh --workload bgl208k_oneshot --seed 0x208e3 --seconds 15 --trace 0
//	bash sessionbench/run.sh --workload bgl208k_oneshot --trace 1 --out a.json
//	bash sessionbench/run.sh --compare a.json b.json
//	bash sessionbench/run.sh --selftest
//	bash sessionbench/run.sh --list
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; failed/attempted is the
// fraction of gathers that errored, lost ranks or failed the output check
// (it is not a metric, because a metric must never read 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// spansDir is where a traced run writes its spans, inside the build
// directory the repository ignores.
const spansDir = ".bench_build/spans"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the result line the benchmark's contract fixes.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out saves: the summary plus everything needed to
// decide whether two results may be compared.
type record struct {
	Workload string            `json:"workload"`
	Seed     string            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Host     host              `json:"host"`
	Notes    map[string]string `json:"notes"`
	summary
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sessionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see --list)")
	seedArg := fs.String("seed", fmt.Sprintf("%#x", DefaultSeed), "workload seed (decimal or 0x hex; 0 means the default)")
	seconds := fs.Int("seconds", 10, "how long the timed sessions run")
	traceArg := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics from telemetry frames and the layer replay")
	out := fs.String("out", "", "also write the full result, with host fields, to this JSON file")
	compare := fs.Bool("compare", false, "compare two --out files named as arguments")
	selftestFlag := fs.Bool("selftest", false, "run every workload at a reduced task count and check the benchmark itself")
	list := fs.Bool("list", false, "list workloads and metrics with their descriptions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "sessionbench: --compare takes two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "sessionbench:", err)
			return 1
		}
		return 0
	case *selftestFlag:
		if err := selftest(stdout, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "sessionbench: selftest:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sessionbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 2
	}
	seed, err := strconv.ParseUint(*seedArg, 0, 64)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench: --seed:", err)
		return 2
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(stderr, "sessionbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	h := hostInfo()
	fmt.Fprintf(stdout, "sessionbench: workload=%s seed=%#x seconds=%d trace=%d\n", w.name, seed, *seconds, *traceArg)
	fmt.Fprintf(stdout, "host: %s\n", h)

	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *traceArg == 1 {
		spansPath := filepath.Join(spansDir, fmt.Sprintf("%s-%#x.jsonl", w.name, seed))
		res, err = tracedRun(stdout, w, seed, budget, spansPath)
	} else {
		res, err = timedRun(w, seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 1
	}
	if missing := res.metrics.missing(); len(missing) > 0 {
		fmt.Fprintf(stderr, "sessionbench: metrics not produced: %v\n", missing)
		return 1
	}
	printMetrics(stdout, res)
	sum := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics.values}
	if *out != "" {
		rec := record{Workload: w.name, Seed: fmt.Sprintf("%#x", seed), Seconds: *seconds, Trace: *traceArg,
			Host: h, Notes: res.notes, summary: sum}
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "sessionbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// hostStealNote is the notes key of the run's host steal share.
const hostStealNote = "host_steal"

// result is one run's outcome before printing.
type result struct {
	metrics           *metricSet
	notes             map[string]string
	attempted, failed int
}

func printMetrics(w io.Writer, r *result) {
	for _, d := range r.metrics.defs {
		m := r.metrics.values[d.name]
		note := r.notes[d.name]
		if strings.HasPrefix(d.desc, "MODELED") {
			note = strings.TrimSpace("MODELED, not measured. " + note)
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-6s %s\n", d.name, m.Value, m.Unit, note)
	}
	fmt.Fprintln(w, r.notes[hostStealNote])
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d failed_frac=%g\n",
		r.failed == 0, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
}

func printList(w io.Writer) {
	fmt.Fprintf(w, "seeds: default %#x (the stat CLI default); held out for later claims: %#x\n\n", DefaultSeed, HeldOutSeed)
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-26s %s\n", wl.name, wl.why)
	}
	for _, part := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (--trace 0)", endToEndMetrics}, {"per-layer metrics (--trace 1)", perLayerMetrics}} {
		fmt.Fprintf(w, "\n%s:\n", part.title)
		for _, d := range part.defs {
			fmt.Fprintf(w, "  %-30s %-6s %s\n", d.name, d.unit, d.desc)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host identifies the machine a result was measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

func (h host) String() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s cpu=%q", h.GOMAXPROCS, h.NProc, h.GoVersion, h.CPU)
}

// hostInfo caps GOMAXPROCS at the CPUs the process may use and reports
// the host fields.
func hostInfo() host {
	n := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	return host{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: n, GoVersion: runtime.Version(), CPU: cpuModel()}
}

// cpuTicks reads the host's CPU time counters from /proc/stat: the time
// the hypervisor gave other guests (steal) and all time, in clock ticks.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of the host's CPU time stolen by the
// hypervisor over an interval: on a shared virtual machine, the
// neighbours' load that slows every measured time at once.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// share is the stolen share of the host's CPU time since startSteal; ok
// is false where /proc/stat cannot tell.
func (m stealMeter) share() (float64, bool) {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return 0, false
	}
	return float64(s-m.steal) / float64(t-m.total), true
}

// note describes the interval since startSteal.
func (m stealMeter) note() string {
	v, ok := m.share()
	if !ok {
		return "host steal: unknown"
	}
	return fmt.Sprintf("host steal: %.1f%% of CPU time during the measured sessions", 100*v)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
