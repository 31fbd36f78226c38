// Package serve implements cloudscoped: an HTTP daemon answering the
// study's questions — deployment patterns, region/zone usage,
// per-domain identification and latency, outage what-ifs — from one
// shared immutable Study per world epoch.
//
// Architecture:
//
//   - One epochState holds the epoch number, the Study, and the
//     result cache. The server swaps the whole state atomically on
//     /admin/reload, so a bumped epoch discards the old cache by
//     construction and a request always answers from exactly one
//     epoch (the one it captured at admission).
//   - The cache keys on (endpoint, sorted params); the epoch is
//     implicit in which state owns the map. Only 200 responses are
//     cached, and a build aborted by cancellation leaves the slot
//     empty for the next request to retry (single-flight per key).
//   - Admission control: a global bounded queue (429 when full — the
//     client should back off) and a per-endpoint concurrency limit
//     (503 when the wait exceeds the queue timeout — the server is
//     saturated). Cancelled waiters abort stage compute through the
//     Study's *Context accessors.
//   - Telemetry: the serve.* registry (requests, rejections, cache
//     hits, latency histograms) exports on /metrics next to the
//     study's own registry; under chaos every answer carries its
//     Completeness fractions (degraded-but-honest).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudscope"
	"cloudscope/api"
	"cloudscope/internal/chaos"
	"cloudscope/internal/telemetry"
)

// Config parameterizes the daemon.
type Config struct {
	// Study is the world served at epoch 1. Validate before use.
	Study cloudscope.Config
	// MaxQueue bounds requests in the system (waiting + executing);
	// excess requests get 429 immediately. Default 256.
	MaxQueue int
	// QueueTimeout bounds how long an admitted request may wait for an
	// endpoint slot before 503. Default 5s.
	QueueTimeout time.Duration
	// EndpointConcurrency bounds concurrently executing requests per
	// endpoint. Default 4 — stage builds fan out internally, so a few
	// concurrent builds saturate the CPU; cached answers are so cheap
	// the limit never binds on them.
	EndpointConcurrency int
	// RequestSpans records a serve/<endpoint> span per request in the
	// serve tracer. Off by default: spans accumulate memory for the
	// daemon's lifetime, which a long-running server cannot afford.
	RequestSpans bool
}

func (c Config) withDefaults() Config {
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.EndpointConcurrency == 0 {
		c.EndpointConcurrency = 4
	}
	return c
}

// cacheEntry is one memoized answer. done guards body/status; the
// mutex single-flights concurrent builders of the same key.
type cacheEntry struct {
	mu     sync.Mutex
	done   bool
	status int
	body   []byte
}

// epochState is everything tied to one world generation. Immutable
// after swap-in except the cache, which only grows.
type epochState struct {
	epoch int64
	study *cloudscope.Study

	mu    sync.Mutex
	cache map[string]*cacheEntry
}

func (st *epochState) entry(key string) *cacheEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.cache[key]
	if e == nil {
		e = &cacheEntry{}
		st.cache[key] = e
	}
	return e
}

// Server is the cloudscoped daemon. Create with New, serve with
// (net/http).Server{Handler: s}.
type Server struct {
	cfg Config
	tel *telemetry.Telemetry

	state atomic.Pointer[epochState]
	// reloadMu serializes /admin/reload; queries never take it.
	reloadMu sync.Mutex

	// inSystem counts requests between admission and response;
	// inSystemMax ratchets its high-water mark (exported as a gauge and
	// asserted by the bounded-queue test).
	inSystem    atomic.Int64
	inSystemMax atomic.Int64

	// sems holds one buffered-channel semaphore per endpoint.
	sems map[string]chan struct{}

	mux *http.ServeMux
}

// New builds the daemon around cfg.Study at epoch 1.
func New(cfg Config) (*Server, error) {
	if err := cfg.Study.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		tel:  telemetry.New(),
		sems: map[string]chan struct{}{},
		mux:  http.NewServeMux(),
	}
	s.state.Store(&epochState{
		epoch: 1,
		study: cloudscope.NewStudy(cfg.Study),
		cache: map[string]*cacheEntry{},
	})
	s.tel.Registry().Gauge("serve.epoch").Set(1)

	for _, ep := range endpoints {
		ep := ep
		s.sems[ep.name] = make(chan struct{}, cfg.EndpointConcurrency)
		s.mux.HandleFunc("/v1/"+ep.name, func(w http.ResponseWriter, r *http.Request) {
			s.serveQuery(w, r, ep)
		})
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Epoch returns the currently served world epoch.
func (s *Server) Epoch() int64 { return s.state.Load().epoch }

// Telemetry exposes the serve-side registry (for tests and benchmarks).
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// MaxInSystem returns the high-water mark of concurrently admitted
// requests — the bounded-queue invariant is MaxInSystem <= MaxQueue.
func (s *Server) MaxInSystem() int64 { return s.inSystemMax.Load() }

// Warm pre-builds the current epoch's world and discovery dataset so
// the first query doesn't pay for them.
func (s *Server) Warm(ctx context.Context) error {
	_, err := s.state.Load().study.DatasetContext(ctx)
	return err
}

// httpError carries a status through the handler plumbing.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// endpoint is one /v1/* route: a name and a payload builder.
type endpoint struct {
	name  string
	build func(ctx context.Context, study *cloudscope.Study, q url.Values) (any, error)
}

var endpoints = []endpoint{
	{"patterns", func(ctx context.Context, st *cloudscope.Study, _ url.Values) (any, error) {
		return api.Patterns(ctx, st)
	}},
	{"regions", func(ctx context.Context, st *cloudscope.Study, _ url.Values) (any, error) {
		return api.Regions(ctx, st)
	}},
	{"zones", func(ctx context.Context, st *cloudscope.Study, _ url.Values) (any, error) {
		return api.Zones(ctx, st)
	}},
	{"domain", func(ctx context.Context, st *cloudscope.Study, q url.Values) (any, error) {
		name := q.Get("name")
		if name == "" {
			return nil, &httpError{http.StatusBadRequest, "missing required parameter: name"}
		}
		return api.Domain(ctx, st, name)
	}},
	{"wanperf", func(ctx context.Context, st *cloudscope.Study, _ url.Values) (any, error) {
		return api.WANPerf(ctx, st)
	}},
	{"outage", func(ctx context.Context, st *cloudscope.Study, q url.Values) (any, error) {
		return api.Outage(ctx, st, q.Get("region"))
	}},
	{"completeness", func(_ context.Context, st *cloudscope.Study, _ url.Values) (any, error) {
		return api.CompletenessReport(st), nil
	}},
}

// cacheKey canonicalizes the query so parameter order cannot split the
// cache.
func cacheKey(name string, q url.Values) string {
	if len(q) == 0 {
		return name
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := name
	for _, k := range keys {
		vs := append([]string(nil), q[k]...)
		sort.Strings(vs)
		for _, v := range vs {
			key += "&" + k + "=" + v
		}
	}
	return key
}

// serveQuery is the admission + cache + build pipeline every /v1/*
// request runs through.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, ep endpoint) {
	reg := s.tel.Registry()
	reg.Counter("serve.requests").Inc()
	reg.Counter("serve.requests." + ep.name).Inc()

	// Global bounded queue: cap on requests in the system. Admission is
	// a CAS loop so the count can never exceed MaxQueue, even
	// transiently — the high-water mark is an invariant, not a hint.
	var n int64
	for {
		cur := s.inSystem.Load()
		if cur >= int64(s.cfg.MaxQueue) {
			reg.Counter("serve.rejected_429").Inc()
			writeError(w, http.StatusTooManyRequests, "server queue full; retry with backoff")
			return
		}
		if s.inSystem.CompareAndSwap(cur, cur+1) {
			n = cur + 1
			break
		}
	}
	defer s.inSystem.Add(-1)
	for {
		max := s.inSystemMax.Load()
		if n <= max || s.inSystemMax.CompareAndSwap(max, n) {
			break
		}
	}

	// Per-endpoint concurrency slot, bounded by the queue timeout and
	// the client's own patience.
	sem := s.sems[ep.name]
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	case <-timer.C:
		reg.Counter("serve.rejected_503").Inc()
		writeError(w, http.StatusServiceUnavailable, "endpoint saturated; retry later")
		return
	case <-r.Context().Done():
		reg.Counter("serve.rejected_503").Inc()
		writeError(w, http.StatusServiceUnavailable, "client went away while queued")
		return
	}

	reg.Gauge("serve.inflight").Add(1)
	defer reg.Gauge("serve.inflight").Add(-1)

	var sp *telemetry.Span
	if s.cfg.RequestSpans {
		sp = s.tel.StartSpan("serve/" + ep.name)
		defer sp.End()
	}

	// The request answers from exactly the epoch it captured here; a
	// concurrent reload swaps the pointer for *later* requests.
	st := s.state.Load()
	start := time.Now()
	status, body := s.answer(r.Context(), st, ep, r.URL.Query())
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	reg.Histogram("serve.latency_ms", latencyBounds).Observe(ms)
	reg.Histogram("serve.latency_ms."+ep.name, latencyBounds).Observe(ms)
	if status != http.StatusOK {
		reg.Counter("serve.errors").Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

var latencyBounds = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// answer resolves one query against one epoch, through its cache.
func (s *Server) answer(ctx context.Context, st *epochState, ep endpoint, q url.Values) (int, []byte) {
	reg := s.tel.Registry()
	e := st.entry(cacheKey(ep.name, q))
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		reg.Counter("serve.cache_hits").Inc()
		return e.status, e.body
	}
	reg.Counter("serve.cache_misses").Inc()

	data, err := ep.build(ctx, st.study, q)
	if err != nil {
		if he, ok := err.(*httpError); ok {
			status, body := he.status, errorBody(he.status, he.msg)
			// Parameter errors are deterministic for the key: cache them
			// too so repeat offenders stay cheap.
			e.done, e.status, e.body = true, status, body
			return status, body
		}
		if ctx.Err() != nil {
			// Cancelled mid-build: leave the slot empty so the next
			// request retries, and tell this client it was them.
			return 499, errorBody(499, "request cancelled during compute")
		}
		return http.StatusInternalServerError, errorBody(http.StatusInternalServerError, err.Error())
	}
	env := api.NewEnvelope(ep.name, st.epoch, st.study, data)
	body, err := json.Marshal(env)
	if err != nil {
		return http.StatusInternalServerError, errorBody(http.StatusInternalServerError, err.Error())
	}
	e.done, e.status, e.body = true, http.StatusOK, body
	return http.StatusOK, body
}

func errorBody(status int, msg string) []byte {
	b, _ := json.Marshal(map[string]any{"error": msg, "status": status})
	return b
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(errorBody(status, msg))
}

// handleHealthz reports liveness and the current epoch.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.state.Load()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ok":true,"epoch":%d,"seed":%d,"domains":%d}`+"\n",
		st.epoch, st.study.Cfg.Seed, st.study.Cfg.Domains)
}

// handleMetrics exports the serve registry and the current study's
// telemetry as one JSON document.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.PublishQueueGauge()
	st := s.state.Load()
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"serve":`))
	if err := s.tel.WriteJSON(w); err != nil {
		return
	}
	w.Write([]byte(`,"study":`))
	if tel := st.study.Telemetry(); tel != nil {
		if err := tel.WriteJSON(w); err != nil {
			return
		}
	} else {
		w.Write([]byte("null"))
	}
	w.Write([]byte("}\n"))
}

// handleReload swaps in a new world epoch. POST with optional seed=,
// domains=, chaos= (a library scenario name; "none" clears); omitted
// parameters keep the current values. The response reports the new
// epoch; requests admitted after the swap answer from it.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "reload requires POST")
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	cur := s.state.Load()
	cfg := cur.study.Cfg
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed: "+err.Error())
			return
		}
		cfg.Seed = seed
	}
	if v := q.Get("domains"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad domains: "+err.Error())
			return
		}
		cfg.Domains = n
	}
	if v := q.Get("chaos"); v != "" {
		if v == "none" {
			cfg.Chaos = nil
		} else {
			sc, err := chaos.Load(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad chaos scenario: "+err.Error())
				return
			}
			cfg.Chaos = sc
		}
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	next := &epochState{
		epoch: cur.epoch + 1,
		study: cloudscope.NewStudy(cfg),
		cache: map[string]*cacheEntry{},
	}
	s.state.Store(next)
	reg := s.tel.Registry()
	reg.Counter("serve.reloads").Inc()
	reg.Gauge("serve.epoch").Set(next.epoch)

	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ok":true,"epoch":%d,"seed":%d,"domains":%d}`+"\n", next.epoch, cfg.Seed, cfg.Domains)
}

// PublishQueueGauge copies the admission high-water mark into the
// registry; called before metrics snapshots so the gauge is current.
func (s *Server) PublishQueueGauge() {
	s.tel.Registry().Gauge("serve.in_system_max").Set(s.inSystemMax.Load())
}
