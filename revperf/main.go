// Command revperf is the repository's end-to-end benchmark. One
// invocation runs one workload through the public APIs of the REV
// stack, checks every output it produces, and prints each metric by
// name with its unit. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash revperf/run.sh --workload cold-attested --seed 107 --seconds 10 --trace 0
//
// Workloads (README.md in this directory says why each exists):
//
//	hot-local      bzip2 over local snapshot tables, serial arena instances
//	cold-attested  gobmk, pipelined instances with evidence and metrics on
//	remote-lookup  gobmk over a loopback sigserve in lookup mode with prefetch
//	plane-mixed    open-loop tenant traffic against a two-shard sigserve ring
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the same workload runs again with spans, a layer ladder and the
// program's own counters, and the metrics are the per-layer ones.
//
// The command exits 1 when any output check fails (after printing the
// result, which then has correct=false) and 2 on bad usage.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Fixed settings. Changing any of them changes what the benchmark
// measures, so they are constants rather than flags.
const (
	// instrBudget is the committed-instruction budget of one validated
	// instance (and of its profiling run).
	instrBudget = 300_000
	// prefetchDepth is the remote-lookup prefetch depth.
	prefetchDepth = 16
	// latencyLimitMS is the plane's latency limit on lookup_ms_tail.
	latencyLimitMS = 1.0
	// nominalRate is plane-mixed's offered rate in ops/s for the
	// latency metrics: about half of the lowest max_rate_ops_s measured
	// over seeds 1-10 (7.9k ops/s on a 2-vCPU host), so no seed's nominal
	// load sits at the latency knee.
	nominalRate = 4000
	// heldOutSeed is kept out of tuning, for confirming later claims.
	heldOutSeed = 2026
)

// workloadDef names one workload and the functions that run it.
type workloadDef struct {
	name string
	// profile is the workload profile its programs come from.
	profile string
	// pool is how many programs one run measures. Each comes from its
	// own seed, so per-run figures average over program shape rather
	// than resting on one generated program.
	pool int
	// maxSteady caps a simulation workload's steady instances just under
	// the count at which the tail rule would step to the next percentile,
	// so the tail sits at the same percentile in every run (p90 for
	// hot-local, p75 for the gobmk workloads).
	maxSteady int
	run       func(r *run) error
	trace     func(r *run) error
}

// workloads lists every workload by name.
var workloads = []*workloadDef{
	{name: "hot-local", profile: "bzip2", pool: 6, maxSteady: 199, run: runHotLocal, trace: traceHotLocal},
	{name: "cold-attested", profile: "gobmk", pool: 6, maxSteady: 99, run: runColdAttested, trace: traceColdAttested},
	{name: "remote-lookup", profile: "gobmk", pool: 5, maxSteady: 99, run: runRemoteLookup, trace: traceRemoteLookup},
	{name: "plane-mixed", profile: "gobmk", pool: 4, run: runPlaneMixed, trace: tracePlaneMixed},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records the host and the settings a result was produced under.
type stamp struct {
	Workload       string  `json:"workload"`
	Trace          bool    `json:"trace"`
	Seed           int64   `json:"seed"`
	PoolSeeds      []int64 `json:"pool_seeds"`
	HeldOutSeed    int64   `json:"held_out_seed"`
	Seconds        float64 `json:"seconds"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	InstrBudget    int     `json:"instr_budget"`
	PrefetchDepth  int     `json:"prefetch_depth"`
	NominalRate    float64 `json:"nominal_rate_ops_s"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	TailSamples    int     `json:"tail_samples,omitempty"`
}

// run is the state of one benchmark invocation.
type run struct {
	def     *workloadDef
	seed    int64
	seconds float64
	trace   bool
	stamp   stamp

	attempted, failed int64
	metrics           map[string]metric
	// unmeasured names per-layer metrics this workload bypasses or
	// cannot measure, with the reason.
	unmeasured map[string]string
}

// record counts one attempted operation; a non-nil err is a failure.
func (r *run) record(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "revperf: %s: check failed: %v\n", r.def.name, err)
		}
	}
}

// set reports one metric.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// bypass marks a per-layer metric as not exercised by this workload.
func (r *run) bypass(reason string, names ...string) {
	for _, n := range names {
		r.unmeasured[n] = reason
	}
}

func main() {
	wl := flag.String("workload", "", "workload name: hot-local, cold-attested, remote-lookup or plane-mixed")
	seed := flag.Int64("seed", -1, "workload seed (-1 = the workload profile's own seed)")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for _, w := range workloads {
		if w.name == *wl {
			def = w
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "revperf: bad arguments (workload %q, seconds %v, trace %d)\n", *wl, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	r := &run{
		def: def, seed: *seed, seconds: *seconds, trace: *trace == 1,
		metrics: map[string]metric{}, unmeasured: map[string]string{},
	}
	if r.seed < 0 {
		r.seed = profileSeed(def.profile)
	}
	r.stamp = stamp{
		Workload: def.name, Trace: r.trace, Seed: r.seed,
		PoolSeeds: poolSeeds(r.seed, def.pool), HeldOutSeed: heldOutSeed,
		Seconds: r.seconds, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: sourceID(), InstrBudget: instrBudget,
		PrefetchDepth: prefetchDepth, NominalRate: nominalRate, LatencyLimitMS: latencyLimitMS,
	}

	fn := def.run
	if r.trace {
		fn = def.trace
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "revperf: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	if err := r.complete(); err != nil {
		fmt.Fprintf(os.Stderr, "revperf: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	r.print(os.Stdout)
	if r.failed > 0 {
		os.Exit(1)
	}
}

// complete checks that the run reported exactly the metrics its mode
// promises: every end-to-end metric untraced, every per-layer metric
// traced (a bypassed layer reads 0 and is listed as unmeasured).
func (r *run) complete() error {
	want := endToEnd
	if r.trace {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := r.metrics[m.name]; !ok {
				if _, bypassed := r.unmeasured[m.name]; bypassed {
					r.set(m.name, 0, m.unit)
				}
			}
		}
	}
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	var missing []string
	for _, m := range want {
		got, ok := r.metrics[m.name]
		switch {
		case !ok:
			missing = append(missing, m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s reported in %s, want %s", m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.name, got.Value)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not reported: %s", strings.Join(missing, ", "))
	}
	for name := range r.metrics {
		if !known(want, name) {
			delete(r.metrics, name)
		}
	}
	return nil
}

// print writes the stamp, one line per metric, and the result line.
func (r *run) print(w io.Writer) {
	st, _ := json.Marshal(r.stamp)
	fmt.Fprintf(w, "stamp %s\n", st)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	unm := make([]string, 0, len(r.unmeasured))
	for n, why := range r.unmeasured {
		unm = append(unm, n+" ("+why+")")
	}
	sort.Strings(unm)
	for _, u := range unm {
		fmt.Fprintf(w, "unmeasured %s\n", u)
	}
	fmt.Fprintf(w, "checks attempted %d failed %d\n", r.attempted, r.failed)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// sourceID identifies the code that was measured: the VCS revision when
// the build recorded one, else a digest of the Go sources and module
// files under the working directory (a checkout without git history).
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// since returns the milliseconds elapsed from t0.
func since(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
