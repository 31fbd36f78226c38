package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"cloudscope"
)

const (
	steadyRate = 1000.0 // reads/s in the steady and reload phases
	// reloadAfter is how long reads run before the reload POST, and
	// reloadTail how long they continue once every endpoint has
	// answered from the new epoch.
	reloadAfter = 500 * time.Millisecond
	reloadTail  = 500 * time.Millisecond
	reloadMax   = 90 * time.Second
	// reloadShare of --seconds is spent on reloads after the first.
	reloadShare = 0.2
)

// ladder is the capacity ladder's offered rates, in reads/s.
var ladder = []float64{1000, 2000, 4000, 8000, 16000, 32000}

// refineSteps is how many bisection steps follow the doubling ladder.
const refineSteps = 2

// daemon is a cloudscoped process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // the process's exit, once
}

// startDaemon starts bin on cfg's world and waits until it listens.
func startDaemon(bin string, cfg cloudscope.Config) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-domains", strconv.Itoa(cfg.Domains), "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-vantages", strconv.Itoa(cfg.Vantages), "-flows", strconv.Itoa(cfg.CaptureFlows))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for found := false; sc.Scan(); {
			if m := listening.FindStringSubmatch(sc.Text()); m != nil && !found {
				addr <- m[1]
				found = true
			}
		}
		close(addr)
		d.done <- cmd.Wait() // after the pipe is drained, as Wait requires
	}()
	select {
	case a, ok := <-addr:
		if ok {
			d.base = a
			return d, nil
		}
		return nil, fmt.Errorf("%s exited before listening: %v", bin, <-d.done)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-d.done
		return nil, fmt.Errorf("%s did not listen within 30s", bin)
	}
}

var listening = regexp.MustCompile(`serving on (http://[0-9.:]+)`)

// stop sends SIGTERM, waits for a graceful exit, and kills the daemon
// if it has not exited within 15s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("daemon ignored SIGTERM; killed")
	}
}

// servePhase starts the daemon on the workload's world, waits until
// every mix endpoint answers, then runs the steady, ladder and reload
// phases open loop.
func (r *run) servePhase() error {
	names := func(seed int64) []string {
		c := r.cfg
		c.Seed = seed
		w := cloudscope.NewStudy(c).World()
		out := make([]string, len(w.Domains))
		for i, d := range w.Domains {
			out[i] = d.Name
		}
		return out
	}
	firstNames, nextNames := names(r.cfg.Seed), names(r.cfg.Seed+1)
	view := &epochView{epoch: 1, seed: r.cfg.Seed, names: firstNames}
	// The generator needs a free P the moment its sleep ends: with one P
	// per CPU, a read worker or the GC often holds both and the wait is
	// charged to every read as lag. The daemon keeps its own defaults.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	// Fewer collections in this process while it times reads.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	t0 := time.Now()
	d, err := startDaemon(r.daemon, r.cfg)
	if err != nil {
		return err
	}
	l := newLoader(d.base, r.cfg.Seed, view)
	defer l.close()
	err = r.driveDaemon(l, d, t0, firstNames, nextNames)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("daemon shutdown: %w", serr)
	}
	return err
}

func (r *run) driveDaemon(l *loader, d *daemon, t0 time.Time, firstNames, nextNames []string) error {
	// Warm: each mix endpoint once, in turn.
	for ep := range mix {
		s := l.do(0, request{due: time.Now(), queued: time.Now(), ep: ep})
		r.count([]sample{s})
		if !s.ok {
			return fmt.Errorf("warm: /v1/%s did not answer 200 with a valid envelope", mix[ep].name)
		}
	}
	r.perLayer("serve.ready_s", secs(time.Since(t0)), "s")

	before, err := scrape(d.base)
	if err != nil {
		return err
	}
	steadyDur := time.Duration(r.seconds * 0.3 * float64(time.Second))
	steady := l.run(steadyRate, steadyDur, steadyDur, nil)
	r.count(steady)
	after, err := scrape(d.base)
	if err != nil {
		return err
	}
	lat := latencies(steady)
	if lag := lagP99(steady); lag > ms(latencyLimit) {
		return fmt.Errorf("steady phase invalid: generator lag p99 %.2f ms exceeds the %v limit", lag, latencyLimit)
	}
	p50, p90, p99 := quantile(lat, 0.5), windowQ(steady, 0.9, 0, 1), windowQ(steady, 0.99, 0, 1)
	r.perLayer("serve_p50_ms", p50, "ms")
	r.perLayer("serve_p90_ms", p90, "ms")
	r.perLayer("serve_p99_ms", p99, "ms")
	r.perLayer("load.lag_p99_ms", lagP99(steady), "ms")
	var miss []float64
	for _, s := range steady {
		if s.ep == 0 && s.first && s.ok {
			miss = append(miss, ms(s.service))
		}
	}
	r.perLayer("serve.domain_miss_ms", median(miss), "ms")
	note("steady: %d reads at %.0f/s in %d windows; p50 %.3f ms, windowed p90 %.3f ms, p99 %.3f ms; %d first-lookup domain reads",
		len(steady), steadyRate, len(steady)/windowReads, p50, p90, p99, len(miss))
	server := after.histDelta(before, "serve.latency_ms")
	r.perLayer("serve.server_p50_ms", server.quantile(0.5), "ms")
	r.perLayer("serve.server_p99_ms", server.quantile(0.99), "ms")
	hits := after.counter("serve.cache_hits") - before.counter("serve.cache_hits")
	misses := after.counter("serve.cache_misses") - before.counter("serve.cache_misses")
	r.perLayer("serve.cache_hit_ratio", hits/(hits+misses), "ratio")

	// Capacity ladder: offered rate doubles until a step misses the
	// limit, then refineSteps bisections (in log rate) narrow the
	// bracket. A step passes when its reads meet the latency limit at
	// p99, both over the whole step and over its second half (so a
	// growing backlog fails it), none fails, and the generator lag stays
	// within the limit. Capacity is where the p99 curve crosses the
	// limit, interpolated log-log inside the final bracket, so it moves
	// continuously with the curve.
	stepDur := time.Duration(r.seconds * 0.05 * float64(time.Second))
	var lo, hi step
	for _, rate := range ladder {
		st := r.ladderStep(l, rate, stepDur)
		if st.invalid {
			break
		}
		if !st.pass {
			hi = st
			break
		}
		lo = st
	}
	for i := 0; i < refineSteps && lo.rate > 0 && hi.rate > 0; i++ {
		st := r.ladderStep(l, math.Sqrt(lo.rate*hi.rate), stepDur)
		if st.invalid {
			break
		}
		if st.pass {
			lo = st
		} else {
			hi = st
		}
	}
	capacity := lo.rate
	if lo.rate > 0 && hi.rate > 0 && hi.p99 > ms(latencyLimit) && !math.IsInf(hi.p99, 1) {
		f := math.Log(ms(latencyLimit)/lo.p99) / math.Log(hi.p99/lo.p99)
		capacity = lo.rate * math.Pow(hi.rate/lo.rate, f)
	}
	if capacity == 0 {
		return fmt.Errorf("capacity ladder: no step met the %v p99 limit", latencyLimit)
	}
	r.perLayer("serve_capacity_rps", capacity, "1/s")

	// Reloads under reads: each POSTs a new seed while reads continue,
	// until every endpoint has answered from the new epoch. Reloads
	// alternate between seed+1 and seed until reloadShare of --seconds
	// has passed (at least one runs); the medians are reported.
	var reloadS, reloadP99, datasetS []float64
	start := time.Now()
	for i := 0; i == 0 || secs(time.Since(start)) < r.seconds*reloadShare; i++ {
		seed, names := r.cfg.Seed+1, nextNames
		if i%2 == 1 {
			seed, names = r.cfg.Seed, firstNames
		}
		s, p99, err := r.reloadOnce(l, seed, names)
		if err != nil {
			return err
		}
		m, err := scrape(d.base)
		if err != nil {
			return err
		}
		reloadS, reloadP99 = append(reloadS, s), append(reloadP99, p99)
		datasetS = append(datasetS, m.spanWallMs("study/dataset")/1000)
	}
	r.endToEnd("reload_s", median(reloadS), "s")
	r.endToEnd("reload_p99_ms", median(reloadP99), "ms")
	r.perLayer("reload.dataset_wall_s", median(datasetS), "s")

	final, err := scrape(d.base)
	if err != nil {
		return err
	}
	r.perLayer("serve.rejected_429", final.counter("serve.rejected_429"), "count")
	r.perLayer("serve.rejected_503", final.counter("serve.rejected_503"), "count")
	r.perLayer("serve.in_system_max", final.gauge("serve.in_system_max"), "count")
	return nil
}

// reloadOnce posts /admin/reload?seed= reloadAfter into a phase of
// reads at steadyRate, and returns the seconds until every mix endpoint
// answered 200 from the new epoch and the p99 in ms of the reads due
// inside that window.
func (r *run) reloadOnce(l *loader, seed int64, names []string) (float64, float64, error) {
	var postAt time.Time
	var reloadErr error
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		time.Sleep(reloadAfter)
		postAt, reloadErr = l.reload(seed, names)
	}()
	done := func() bool {
		select {
		case <-posted:
		default:
			return false
		}
		last, ok := l.allAnswered(l.view.Load().epoch)
		return reloadErr != nil || (ok && time.Since(last) >= reloadTail)
	}
	rs := l.run(steadyRate, reloadAfter, reloadMax, done)
	<-posted
	r.count(rs)
	if reloadErr != nil {
		return 0, 0, reloadErr
	}
	last, ok := l.allAnswered(l.view.Load().epoch)
	if !ok {
		return 0, 0, fmt.Errorf("reload: not every endpoint answered from the new epoch within %v", reloadMax)
	}
	if lag := lagP99(rs); lag > ms(latencyLimit) {
		return 0, 0, fmt.Errorf("reload phase invalid: generator lag p99 %.2f ms exceeds the %v limit", lag, latencyLimit)
	}
	var window []float64
	for _, s := range rs {
		if !s.due.Before(postAt) && !s.due.After(last) {
			window = append(window, s.latencyMs())
		}
	}
	wall, p99 := secs(last.Sub(postAt)), quantile(window, 0.99)
	note("reload to seed %d: %.3f s until every endpoint answered from epoch %d; %d reads due inside, p99 %.1f ms",
		seed, wall, l.view.Load().epoch, len(window), p99)
	return wall, p99, nil
}

// count adds reads to the run's operation counts.
func (r *run) count(ss []sample) {
	r.attempted += int64(len(ss))
	r.failed += int64(failedIn(ss))
}

// step is one capacity-ladder step's verdict.
type step struct {
	rate    float64
	p99     float64 // windowed p99: the worse of the whole step's and its second half's
	pass    bool
	invalid bool // the generator lagged past the limit
}

func (r *run) ladderStep(l *loader, rate float64, dur time.Duration) step {
	ss := l.run(rate, dur, dur, nil)
	r.count(ss)
	all, late := windowQ(ss, 0.99, 0, 1), windowQ(ss, 0.99, 0.5, 1)
	lag := lagP99(ss)
	st := step{rate: rate, p99: math.Max(all, late), invalid: lag > ms(latencyLimit)}
	st.pass = !st.invalid && st.p99 <= ms(latencyLimit) && failedIn(ss) == 0
	note("ladder %6.0f/s: %d reads, p99 %.3f ms (second half %.3f ms), lag p99 %.3f ms, pass=%v invalid=%v",
		rate, len(ss), all, late, lag, st.pass, st.invalid)
	return st
}

func failedIn(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// metricsDoc is the part of /metrics this benchmark reads.
type metricsDoc struct {
	Serve struct {
		Counters   map[string]float64 `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]hist    `json:"histograms"`
	} `json:"serve"`
	Study struct {
		Spans []span `json:"spans"`
	} `json:"study"`
}

type hist struct {
	Count   float64 `json:"count"`
	Buckets []struct {
		LE float64 `json:"le"`
		N  float64 `json:"n"`
	} `json:"buckets"`
}

type span struct {
	Name     string  `json:"name"`
	WallMs   float64 `json:"wall_ms"`
	Children []span  `json:"children"`
}

func scrape(base string) (*metricsDoc, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

func (m *metricsDoc) counter(name string) float64 { return m.Serve.Counters[name] }
func (m *metricsDoc) gauge(name string) float64   { return m.Serve.Gauges[name] }

// histDelta returns histogram name's bucket counts since before.
func (m *metricsDoc) histDelta(before *metricsDoc, name string) hist {
	h := m.Serve.Histograms[name]
	b := before.Serve.Histograms[name]
	out := hist{Count: h.Count - b.Count, Buckets: h.Buckets}
	out.Buckets = append(out.Buckets[:0:0], h.Buckets...)
	for i := range out.Buckets {
		if i < len(b.Buckets) {
			out.Buckets[i].N -= b.Buckets[i].N
		}
	}
	return out
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation; the overflow bucket reports the last finite bound.
func (h hist) quantile(q float64) float64 {
	target := q * h.Count
	var acc, lo float64
	for i, b := range h.Buckets {
		if i == len(h.Buckets)-1 {
			return lo // overflow bucket
		}
		if b.N > 0 && acc+b.N >= target {
			return lo + (b.LE-lo)*(target-acc)/b.N
		}
		acc += b.N
		lo = b.LE
	}
	return lo
}

// spanWallMs finds the first span named name in the study span tree.
func (m *metricsDoc) spanWallMs(name string) float64 {
	var find func([]span) (float64, bool)
	find = func(ss []span) (float64, bool) {
		for _, s := range ss {
			if s.Name == name {
				return s.WallMs, true
			}
			if v, ok := find(s.Children); ok {
				return v, true
			}
		}
		return 0, false
	}
	v, _ := find(m.Study.Spans)
	return v
}
