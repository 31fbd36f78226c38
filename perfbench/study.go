package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cloudscope"
	"cloudscope/api"
)

const (
	// setupOnlyReps set-ups run before the study reps, so setup_s is a
	// median over at least this many samples plus one per study rep.
	setupOnlyReps = 4
	// minStudyReps is the fewest full studies a run measures.
	minStudyReps = 2
	// coverageTolerance bounds |sum of stage times / traced total - 1|.
	coverageTolerance = 0.02
)

// refs holds committed output digests: workload -> seed -> sha256 of
// every rendered experiment plus the marshalled V1 document.
//
//go:embed refs.json
var refsJSON []byte

// studyPhase measures set-up and whole studies (trace 0), or one
// untraced study, one stage-by-stage traced study and the wire-layer
// probes (trace 1). Every study's digest is checked.
func (r *run) studyPhase(workload string) error {
	var refs map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	want, haveRef := refs[workload][strconv.FormatInt(r.cfg.Seed, 10)]
	check := func(got string) {
		r.attempted++
		if want == "" {
			want = got // no committed reference: every rep must agree with the first
		}
		if got != want {
			r.failed++
			note("digest mismatch: got %s want %s", got, want)
		}
	}

	var setups []float64
	for i := 0; i < setupOnlyReps; i++ {
		runtime.GC()
		t := time.Now()
		cloudscope.NewStudy(r.cfg).World()
		setups = append(setups, secs(time.Since(t)))
	}

	budget := r.seconds / 2
	var walls, peaks []float64
	var last rendered
	start := time.Now()
	reps := minStudyReps
	if r.trace {
		reps = 1 // the untraced base for trace_overhead
	}
	for len(walls) < reps || (!r.trace && secs(time.Since(start)) < budget) {
		runtime.GC()
		hp := startHeapPeak()
		t0 := time.Now()
		s := cloudscope.NewStudy(r.cfg)
		s.World()
		t1 := time.Now()
		out, err := renderStudy(s)
		if err != nil {
			hp.stop()
			return err
		}
		walls = append(walls, secs(time.Since(t1)))
		setups = append(setups, secs(t1.Sub(t0)))
		peaks = append(peaks, hp.stop())
		check(out.digest)
		last = out
	}
	note("digest %s (reference %s)", want, map[bool]string{true: "committed", false: "none: reps compared"}[haveRef])
	note("study reps=%d study_wall_s=%v setup samples=%d", len(walls), walls, len(setups))

	r.endToEnd("setup_s", median(setups), "s")
	r.endToEnd("study_wall_s", median(walls), "s")
	r.endToEnd("peak_heap_mb", median(peaks), "MB")
	if !r.trace {
		return nil
	}
	return r.tracedStudy(check, median(walls), last)
}

// rendered is one study's outputs, summarised.
type rendered struct {
	digest      string   // sha256 over every experiment's ID and output, then the V1 document
	experiments []string // sha256 of each experiment's output, in Experiments() order
	docBytes    int
	render, api time.Duration
}

// renderStudy renders every experiment, then marshals the V1 document.
func renderStudy(s *cloudscope.Study) (rendered, error) {
	var out rendered
	h := sha256.New()
	t := time.Now()
	for _, e := range cloudscope.Experiments() {
		text, err := s.RunExperiment(e.ID)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", e.ID, text)
		sum := sha256.Sum256([]byte(text))
		out.experiments = append(out.experiments, hex.EncodeToString(sum[:]))
	}
	out.render = time.Since(t)
	t = time.Now()
	doc, err := api.Study(context.Background(), s)
	if err != nil {
		return out, fmt.Errorf("api.Study: %w", err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return out, fmt.Errorf("marshal V1 document: %w", err)
	}
	out.api = time.Since(t)
	h.Write(b)
	out.docBytes = len(b)
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// stageOrder is the traced run's dependency order; render and api are
// timed after it.
var stageOrder = []struct {
	name string
	call func(*cloudscope.Study)
}{
	{"world", func(s *cloudscope.Study) { s.World() }},
	{"dataset", func(s *cloudscope.Study) { s.Dataset() }},
	{"detect", func(s *cloudscope.Study) { s.Detection() }},
	{"regions", func(s *cloudscope.Study) { s.Regions() }},
	{"zones", func(s *cloudscope.Study) { s.Zones() }},
	{"nameservers", func(s *cloudscope.Study) { s.NameServers() }},
	{"capture", func(s *cloudscope.Study) { s.Capture() }},
	{"wanperf", func(s *cloudscope.Study) { s.Campaign() }},
}

// tracedStudy runs one study calling each stage accessor in turn, so
// each stage's wall time is taken around its public entry point, then
// reads the counters the study exports and runs the layer probes. Its
// outputs are checked like any study's, and compared experiment by
// experiment with the untraced study's.
func (r *run) tracedStudy(check func(string), untracedWall float64, untraced rendered) error {
	runtime.GC()
	stage := map[string]float64{}
	t0 := time.Now()
	s := cloudscope.NewStudy(r.cfg)
	for _, st := range stageOrder {
		t := time.Now()
		st.call(s)
		stage[st.name] = secs(time.Since(t))
	}
	out, err := renderStudy(s)
	if err != nil {
		return err
	}
	stage["render"], stage["api"] = secs(out.render), secs(out.api)
	total := secs(time.Since(t0))
	check(out.digest)
	if out.digest != untraced.digest {
		var diff []string
		for i, e := range cloudscope.Experiments() {
			if out.experiments[i] != untraced.experiments[i] {
				diff = append(diff, e.ID)
			}
		}
		note("stage-order dependence: with every stage built in dependency order before rendering, %v differ from the study rendered in experiment order", diff)
	}

	var sum float64
	for name, v := range stage {
		sum += v
		r.perLayer(name+".wall_s", v, "s")
		r.perLayer("stage_share."+name, v/total, "ratio")
	}
	coverage := sum / total
	r.perLayer("stage_coverage", coverage, "ratio")
	if coverage < 1-coverageTolerance || coverage > 1+coverageTolerance {
		return fmt.Errorf("stage times cover %.4f of the traced study, outside 1±%.2f", coverage, coverageTolerance)
	}
	tracedWall := total - stage["world"]
	r.perLayer("trace_overhead", tracedWall/untracedWall-1, "ratio")
	note("traced study_wall_s=%.4f untraced=%.4f coverage=%.4f", tracedWall, untracedWall, coverage)

	r.perLayer("api.doc_bytes", float64(out.docBytes), "bytes")

	tel := s.Telemetry()
	snap := tel.Registry().Snapshot()
	queries := float64(snap.Counter("dns.queries"))
	r.perLayer("dns.queries", queries, "count")
	r.perLayer("dns.queries_per_domain", queries/float64(r.cfg.Domains), "count")
	r.perLayer("dns.noerror_share", float64(snap.Counter("dns.rcode.noerror"))/queries, "ratio")
	r.perLayer("dns.retries", float64(snap.Counter("dns.retries")), "count")
	r.perLayer("dns.failed", float64(snap.Counter("dns.failed")), "count")
	r.perLayer("fabric.datagrams_dropped", float64(snap.Counter("fabric.datagrams.dropped")), "count")
	r.perLayer("cartography.probes", float64(snap.Counter("cloud.ec2.probes")), "count")
	r.perLayer("wan.samples", float64(snap.Counter("wan.rtt.samples")+snap.Counter("wan.throughput.samples")), "count")
	for _, st := range []string{"world", "dataset", "detect", "regions", "zones", "nameservers", "capture", "capture_analyze", "wanperf"} {
		hv, _ := snap.Histogram("parallel." + st + ".queue_wait_ms")
		r.perLayer("parallel."+st+".queue_wait_ms", hv.Sum, "ms")
	}
	if sp := tel.Tracer().Find("study/dataset"); sp != nil {
		r.perLayer("dataset.mallocs_per_query", float64(sp.AllocObjects())/queries, "count")
	}
	if sp := tel.Tracer().Find("study/world"); sp != nil {
		r.perLayer("world.alloc_mb", float64(sp.AllocBytes())/1e6, "MB")
	}

	if err := r.dnsProbe(queries, stage["dataset"]); err != nil {
		return err
	}
	return r.captureProbe(s)
}

// printRefs prints the reference digests of seeds lo-hi as JSON.
func printRefs(workload string, cfg cloudscope.Config, span string) error {
	lo, hi, ok := strings.Cut(span, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || a > b {
		return fmt.Errorf("bad --refs %q: want lo-hi", span)
	}
	out := map[string]string{}
	for seed := a; seed <= b; seed++ {
		cfg.Seed = seed
		rs, err := renderStudy(cloudscope.NewStudy(cfg))
		if err != nil {
			return err
		}
		out[strconv.FormatInt(seed, 10)] = rs.digest
	}
	b2, err := json.MarshalIndent(map[string]map[string]string{workload: out}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b2))
	return nil
}

// heapPeak samples the Go heap's live-object bytes every millisecond
// until stopped.
type heapPeak struct {
	max  atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.max.Load() {
			h.max.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB (10^6 bytes).
func (h *heapPeak) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.max.Load()) / 1e6
}
