package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// latencyLimit is the serve latency limit: the p99 a capacity step
// must meet, and the generator lag past which a phase is invalid.
const latencyLimit = 25 * time.Millisecond

// mix is the read mix: half /v1/domain with Zipf-ranked names, the
// other half spread evenly over the six study-wide endpoints.
var mix = []struct{ name, path string }{
	{"domain", "/v1/domain?name="},
	{"patterns", "/v1/patterns"},
	{"regions", "/v1/regions"},
	{"zones", "/v1/zones"},
	{"outage", "/v1/outage?region=ec2.us-east-1"},
	{"wanperf", "/v1/wanperf"},
	{"completeness", "/v1/completeness"},
}

// epochView is the world epoch the client believes in force: its
// number, seed and ranked names.
type epochView struct {
	epoch, seed int64
	names       []string
}

// request is one scheduled read.
type request struct {
	due, queued time.Time
	ep, rank    int
}

// sample is one completed read. Latency runs from the due time;
// a failed read has latency +Inf.
type sample struct {
	due, end time.Time
	lag      time.Duration // queued - due: how late the generator ran
	service  time.Duration // end - sent
	ep       int
	epoch    int64
	ok       bool
	first    bool // first read of its key in its epoch
}

func (s sample) latencyMs() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return ms(s.end.Sub(s.due))
}

// loader drives the daemon open loop from one process over at most
// nproc keep-alive connections, one per worker.
type loader struct {
	base    string
	clients []*http.Client
	rng     *rand.Rand // dispatcher goroutine only
	zipf    *rand.Zipf

	// gate quiesces reads around /admin/reload: every read holds it
	// shared from choosing its name to reading its answer, so each read
	// has exactly one epoch in force.
	gate sync.RWMutex
	view atomic.Pointer[epochView]

	mu        sync.Mutex
	seen      map[string]bool   // keys read so far, per epoch
	validated map[string][]byte // key -> answer already checked
	firstOK   map[int64][]time.Time
}

func newLoader(base string, seed int64, view *epochView) *loader {
	conns := runtime.NumCPU()
	l := &loader{
		base:      base,
		rng:       rand.New(rand.NewSource(seed)),
		seen:      map[string]bool{},
		validated: map[string][]byte{},
		firstOK:   map[int64][]time.Time{},
	}
	l.zipf = rand.NewZipf(l.rng, 1.1, 1, uint64(len(view.names)-1))
	for i := 0; i < conns; i++ {
		l.clients = append(l.clients, &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	l.view.Store(view)
	return l
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// pick draws the next read's target.
func (l *loader) pick() (ep, rank int) {
	if l.rng.Intn(2) == 0 {
		return 0, int(l.zipf.Uint64())
	}
	return 1 + l.rng.Intn(len(mix)-1), 0
}

// run offers reads at a fixed rate (evenly spaced due times) for at
// least minDur and until done reports true, at most maxDur, then waits
// for every read.
func (l *loader) run(rate float64, minDur, maxDur time.Duration, done func() bool) []sample {
	// Sized to the most reads the phase can schedule, so the dispatcher
	// never blocks on a stalled server: the backlog queues here.
	ch := make(chan request, int(rate*maxDur.Seconds()*1.2)+64)
	parts := make([][]sample, len(l.clients))
	var wg sync.WaitGroup
	for k := range l.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for rq := range ch {
				parts[k] = append(parts[k], l.do(k, rq))
			}
		}(k)
	}
	start := time.Now()
	for next := start; ; next = next.Add(time.Duration(float64(time.Second) / rate)) {
		el := next.Sub(start)
		if el >= maxDur || (el >= minDur && (done == nil || done())) {
			break
		}
		sleepUntil(next)
		ep, rank := l.pick()
		ch <- request{due: next, queued: time.Now(), ep: ep, rank: rank}
	}
	close(ch)
	wg.Wait()
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// do sends one read on worker k's connection and checks its answer.
func (l *loader) do(k int, rq request) sample {
	l.gate.RLock()
	defer l.gate.RUnlock()
	v := l.view.Load()
	s := sample{due: rq.due, lag: rq.queued.Sub(rq.due), ep: rq.ep, epoch: v.epoch}
	url, name := l.base+mix[rq.ep].path, ""
	if rq.ep == 0 {
		name = v.names[rq.rank]
		url += name
	}
	key := fmt.Sprintf("%d|%d|%s", v.epoch, rq.ep, name)
	l.mu.Lock()
	s.first = !l.seen[key]
	l.seen[key] = true
	l.mu.Unlock()

	sent := time.Now()
	status, body, err := get(l.clients[k], url)
	s.end = time.Now()
	s.service = s.end.Sub(sent)
	s.ok = err == nil && status == http.StatusOK && l.valid(key, v, rq, name, body)
	if s.ok {
		l.mu.Lock()
		first := l.firstOK[v.epoch]
		if first == nil {
			first = make([]time.Time, len(mix))
			l.firstOK[v.epoch] = first
		}
		if first[rq.ep].IsZero() {
			first[rq.ep] = s.end
		}
		l.mu.Unlock()
	}
	return s
}

// sleepUntil blocks until t. The runtime's timers wake up to a
// millisecond late on an idle Linux host, which would be charged to
// every read as generator lag, so the dispatcher sleeps with
// nanosleep(2) directly.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// valid checks a 200 answer: it decodes as a V1 envelope from the
// endpoint asked, with the epoch and seed in force; a domain answer
// names the domain asked at its rank. An answer byte-identical to one
// already checked for the same key passes without decoding again.
func (l *loader) valid(key string, v *epochView, rq request, name string, body []byte) bool {
	l.mu.Lock()
	prev, ok := l.validated[key]
	l.mu.Unlock()
	if ok {
		return bytes.Equal(prev, body)
	}
	var env struct {
		APIVersion string          `json:"api_version"`
		Endpoint   string          `json:"endpoint"`
		Epoch      int64           `json:"epoch"`
		Seed       int64           `json:"seed"`
		Data       json.RawMessage `json:"data"`
	}
	if json.Unmarshal(body, &env) != nil || env.APIVersion != "v1" || env.Endpoint != mix[rq.ep].name ||
		env.Epoch != v.epoch || env.Seed != v.seed || len(env.Data) == 0 {
		return false
	}
	if rq.ep == 0 {
		var d struct {
			Domain string `json:"domain"`
			Rank   int    `json:"rank"`
			Found  bool   `json:"found"`
		}
		if json.Unmarshal(env.Data, &d) != nil || d.Domain != name || d.Rank != rq.rank+1 || !d.Found {
			return false
		}
	}
	l.mu.Lock()
	l.validated[key] = body
	l.mu.Unlock()
	return true
}

// allAnswered reports whether every mix endpoint has answered 200 from
// epoch, and when the last of them did.
func (l *loader) allAnswered(epoch int64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var last time.Time
	first := l.firstOK[epoch]
	if first == nil {
		return last, false
	}
	for _, t := range first {
		if t.IsZero() {
			return last, false
		}
		if t.After(last) {
			last = t
		}
	}
	return last, true
}

// reload posts /admin/reload?seed= with every read quiesced, then
// switches the client's view to the new epoch.
func (l *loader) reload(seed int64, names []string) (time.Time, error) {
	l.gate.Lock()
	defer l.gate.Unlock()
	at := time.Now()
	resp, err := l.clients[0].Post(fmt.Sprintf("%s/admin/reload?seed=%d", l.base, seed), "text/plain", nil)
	if err != nil {
		return at, fmt.Errorf("reload: %w", err)
	}
	defer resp.Body.Close()
	var ack struct {
		OK    bool  `json:"ok"`
		Epoch int64 `json:"epoch"`
		Seed  int64 `json:"seed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || !ack.OK || ack.Seed != seed {
		return at, fmt.Errorf("reload: status %d, ack %+v, err %v", resp.StatusCode, ack, err)
	}
	l.view.Store(&epochView{epoch: ack.Epoch, seed: seed, names: names})
	return at, nil
}

// latencies returns the samples' latencies from due time, in ms.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latencyMs()
	}
	return out
}

// windowReads is how many reads one latency window holds: enough that
// ten reads lie beyond its p99.
const windowReads = 1000

// windowQ splits reads in due order into windows of about windowReads
// each and returns the median of the windows' q-quantiles in ms. One
// host hiccup spoils one window, not the figure; a backlog that keeps
// growing spoils every later window. first and last select the windows
// (as fractions of the phase) the median runs over.
func windowQ(ss []sample, q, first, last float64) float64 {
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].due.Before(s[j].due) })
	k := len(s) / windowReads
	if k < 1 {
		k = 1
	}
	var qs []float64
	for w := int(first * float64(k)); w < int(math.Ceil(last*float64(k))); w++ {
		qs = append(qs, quantile(latencies(s[w*len(s)/k:(w+1)*len(s)/k]), q))
	}
	return median(qs)
}

// lagP99 is the generator's p99 lateness in ms.
func lagP99(ss []sample) float64 {
	lags := make([]float64, len(ss))
	for i, s := range ss {
		lags[i] = ms(s.lag)
	}
	return quantile(lags, 0.99)
}
