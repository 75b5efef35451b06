// Command benchmark is the repository's benchmark: three workloads that
// drive the public surfaces (repose.Build/BuildRemote/OpenDurable, the
// Index query and mutation methods, and the serve gateway over HTTP),
// report end-to-end metrics with tracing off, and, in a separate traced
// run, per-layer metrics for dist, partition/pivot, rptrie, cluster,
// serve and storage. See README.md for the workloads and the layer →
// end-to-end map.
//
//	go run . --workload local-rome-frechet --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it print
// every metric by name and unit, the error rate, and the machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"local-rome-frechet":      localRomeFrechet,
	"remote-tdrive-hausdorff": remoteTdriveHausdorff,
	"gateway-tdrive-mixed":    gatewayTdriveMixed,
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	dur      time.Duration // load time measured by the run
	traced   bool          // --trace 1: per-layer metrics
	out      string        // results directory
	tmp      string        // scratch for durable stores, removed at exit

	attempted, failed atomic.Int64

	mu         sync.Mutex
	metrics    map[string]float64
	mismatches []string
	datasets   []datasetInfo
	notes      []string
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// op counts one operation and whether it failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
	}
}

// mismatch records a wrong answer as a failed operation and prints it
// with the seed that reproduces it.
func (r *run) mismatch(format string, args ...any) {
	msg := fmt.Sprintf("MISMATCH workload=%s seed=%d %s", r.workload, r.seed, fmt.Sprintf(format, args...))
	fmt.Println(msg)
	r.mu.Lock()
	r.mismatches = append(r.mismatches, msg)
	r.mu.Unlock()
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "seconds of load the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the result file and span dump")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		out:      *out,
		tmp:      tmp,
		metrics:  map[string]float64{},
	}
	// A hung run must not outlive the harness's deadline.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170s, aborting")
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	err = drive(r)
	watchdog.Stop()
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", r.workload, r.seed, err)
		os.Exit(1)
	}
	if err := r.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type machineInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// datasetInfo records one generated input set.
type datasetInfo struct {
	Name    string  `json:"name"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Trips   int     `json:"trips"`
	Points  int     `json:"points"`
	Indexed int     `json:"indexed"`
	HeldOut int     `json:"held_out"`
}

// reportFile is the full record written next to the span dump.
type reportFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Machine    machineInfo        `json:"machine"`
	Datasets   []datasetInfo      `json:"datasets"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	ErrorRate  float64            `json:"error_rate"`
	Mismatches []string           `json:"mismatches"`
	LowSignal  []string           `json:"low_signal,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Emitted    []string           `json:"emitted"`
	Metrics    map[string]float64 `json:"metrics"`
}

// finish prints every metric of the run's kind by name and unit, writes
// the result file, and prints the result object as the last line.
func (r *run) finish() error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	errRate := 0.0
	if attempted > 0 {
		errRate = float64(failed) / float64(attempted)
	}
	mi := machine()
	var lowSignal []string
	if mi.NumCPU < 2 {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if strings.Contains(d.name, "p99") {
				lowSignal = append(lowSignal, d.name)
			}
		}
	}

	line := resultLine{
		Correct:   failed == 0 && len(r.mismatches) == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricOut{},
	}
	var emitted []string
	for _, d := range defs {
		// A layer the workload does not exercise did no work: 0.
		v := r.metrics[d.name]
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		emitted = append(emitted, d.name)
		fmt.Printf("%-40s %16.6f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("%-40s %16.6f %s\n", "error_rate", errRate, "ratio")
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s cpu=%q\n", mi.NumCPU, mi.GOMAXPROCS, mi.GoVersion, mi.CPUModel)
	for _, ds := range r.datasets {
		fmt.Printf("dataset: %s scale=%g seed=%d trips=%d points=%d indexed=%d held_out=%d\n",
			ds.Name, ds.Scale, ds.Seed, ds.Trips, ds.Points, ds.Indexed, ds.HeldOut)
	}
	if len(lowSignal) > 0 {
		fmt.Printf("low-signal (nproc < 2): %s\n", strings.Join(lowSignal, ", "))
	}

	rep := reportFile{
		Workload: r.workload, Seed: r.seed, Seconds: r.dur.Seconds(), Trace: r.traced,
		Machine: mi, Datasets: r.datasets,
		Attempted: attempted, Failed: failed, ErrorRate: errRate,
		Mismatches: append([]string{}, r.mismatches...),
		LowSignal:  lowSignal, Notes: r.notes,
		Emitted: emitted, Metrics: r.metrics,
	}
	path := filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, boolInt(r.traced)))
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", path)

	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func machine() machineInfo {
	mi := machineInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					mi.CPUModel = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return mi
}
