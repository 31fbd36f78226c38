// Command perfbench is cloudscope's end-to-end benchmark. One run
// drives a cloudscoped daemon open loop on a seeded world, then runs
// whole studies of that world through the library's public entry
// points, checks every output, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload study-dns --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run also times every stage, the DNS wire layers and
// the capture layers from this package, and the result carries the
// per-layer metrics instead. See README.md for the workloads, the
// metric definitions and the layer-to-metric predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"cloudscope"
)

// workloads maps each workload name to its study sizing; the seed and
// worker count are filled in per run.
var workloads = map[string]cloudscope.Config{
	// Discovery is nearly the whole study at this size.
	"study-dns": {Domains: 2000, Vantages: 10, CaptureFlows: 2000, WANClients: 80},
	// The border capture is most of the study at this size.
	"study-capture": {Domains: 500, Vantages: 10, CaptureFlows: 200000, WANClients: 80},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's metrics and operation counts.
type run struct {
	cfg       cloudscope.Config
	seconds   float64
	trace     bool
	daemon    string
	attempted int64
	failed    int64
	e2e       map[string]metric
	layer     map[string]metric
}

func (r *run) endToEnd(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *run) perLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// note prints one human-readable report line; the result line stays last.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "workload name: study-dns or study-capture")
	seed := flag.Int64("seed", 1, "world seed")
	seconds := flag.Int("seconds", 30, "measured seconds, split between the serve and study phases")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	daemonBin := flag.String("daemon", ".bench_build/cloudscoped", "cloudscoped binary the serve phase starts")
	refs := flag.String("refs", "", "print reference digests for seeds lo-hi of --workload and exit")
	flag.Parse()

	base, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *refs != "" {
		if err := printRefs(*name, base, *refs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := base
	cfg.Seed = *seed
	r := &run{
		cfg:     cfg,
		seconds: float64(*seconds),
		trace:   *trace == 1,
		daemon:  *daemonBin,
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
	}
	note("workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	if err := r.execute(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if r.failed == 0 {
			os.Exit(1) // an invalid run: no result
		}
		note("run stopped early by failed outputs: %v", err)
	}

	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.trace {
		out.Metrics = r.layer
	}
	note("failed_share %.6f ratio (%d of %d operations)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, group := range []map[string]metric{r.e2e, r.layer} {
		for _, k := range sortedKeys(group) {
			note("%-34s %14.6f %s", k, group[k].Value, group[k].Unit)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// execute runs the serve phase, then the study phase. Serving goes
// first because its sub-millisecond timings suffer for a while after
// the study reps have churned a gigabyte of heap; the study reps'
// second-long timings do not notice the order.
func (r *run) execute(workload string) error {
	if err := r.servePhase(); err != nil {
		return err
	}
	return r.studyPhase(workload)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile by the nearest-rank rule; +Inf
// entries (failed operations) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
