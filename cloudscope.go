// Package cloudscope reproduces the measurement study "Next Stop, the
// Cloud: Understanding Modern Web Service Deployment in EC2 and Azure"
// (He et al., IMC 2013) as a runnable system: a synthetic Internet
// (DNS, two IaaS clouds, a wide-area network, a campus border tap)
// whose ground truth follows the paper's published distributions, and
// the paper's full measurement methodology executed against it.
//
// The entry point is a Study:
//
//	study := cloudscope.NewStudy(cloudscope.DefaultConfig().WithDomains(5000))
//	ds := study.Dataset()            // §2.1 discovery pipeline
//	fmt.Print(study.Breakdown().Table3())
//
// Every numbered table and figure of the paper has a registered
// experiment; see Experiments and cmd/experiments. Long-running
// consumers (the cloudscoped daemon) use the *Context accessor
// variants, which abort stage compute when the request is cancelled.
package cloudscope

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudscope/internal/capture"
	"cloudscope/internal/cartography"
	"cloudscope/internal/chaos"
	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core/classify"
	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/core/regions"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/core/zones"
	"cloudscope/internal/deploy"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/simnet"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/wan"
)

// Config parameterizes a Study. Zero values are filled from
// DefaultConfig; construct with DefaultConfig and the With* helpers.
type Config struct {
	// Seed drives every generator; identical configs are bit-for-bit
	// reproducible.
	Seed int64
	// Domains is the ranked-list size ("top 1M" scaled; default 20000).
	Domains int
	// Vantages is the distributed-resolution vantage count (paper: 200).
	Vantages int
	// CaptureFlows sizes the synthetic border capture (default 30000).
	CaptureFlows int
	// WANClients is the PlanetLab client count for §5 (paper: 80).
	WANClients int
	// Workers bounds the analysis stages' fan-out: 0 uses GOMAXPROCS,
	// 1 forces the exact sequential path. Results are bit-identical at
	// every setting; see internal/parallel.
	Workers int
	// NoTelemetry disables the study's metrics registry and span tracer.
	// The default (telemetry on) costs a few atomic increments per probe;
	// see BenchmarkTelemetryOverhead.
	NoTelemetry bool
	// Chaos, when non-nil, runs the whole study under that fault
	// scenario: the fabric drops and forges datagrams, vantages and
	// accounts go dark mid-campaign, regions brown out, and the border
	// capture suffers truncated flows, forged mid-stream resets,
	// re-ordered segments, corrupted frames, and dropped records
	// (cap-* fault kinds). Outputs stay
	// bit-identical at every worker count; Completeness reports what the
	// faults cost. See internal/chaos.
	Chaos *chaos.Scenario
	// ChaosRecord arms fault-trace recording: every faulting verdict the
	// chaos engine emits is captured, and FaultTrace returns the
	// canonical trace after the run. Ignored without Chaos.
	ChaosRecord bool
	// ChaosReplay, when non-nil, replaces the hash-drawn chaos engine
	// with one that re-injects this recorded trace verbatim (Chaos and
	// ChaosRecord are then ignored). Replaying the trace of a recorded
	// run — same Seed and sizing — reproduces that run's outputs
	// byte-identically, even across engine or scenario changes. See
	// internal/chaos/trace.
	ChaosReplay *trace.Trace
}

// DefaultConfig returns a library-scale configuration: large enough for
// every distribution to be visible, small enough to run in seconds.
func DefaultConfig() Config {
	return Config{Seed: 1, Domains: 20000, Vantages: 200, CaptureFlows: 30000, WANClients: 80}
}

// WithDomains returns the config with a different list size.
func (c Config) WithDomains(n int) Config { c.Domains = n; return c }

// WithSeed returns the config reseeded.
func (c Config) WithSeed(seed int64) Config { c.Seed = seed; return c }

// WithWorkers returns the config with a different fan-out bound
// (0 = GOMAXPROCS, 1 = sequential).
func (c Config) WithWorkers(n int) Config { c.Workers = n; return c }

// WithChaos returns the config running under a fault scenario.
func (c Config) WithChaos(sc *chaos.Scenario) Config { c.Chaos = sc; return c }

// FieldError reports one invalid Config field: which field, the value
// it held, and what is wrong with it.
type FieldError struct {
	Field  string
	Value  any
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// ValidationError aggregates every invalid Config field, so a caller
// sees all problems at once instead of fixing them one run at a time.
type ValidationError struct {
	Fields []*FieldError
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "cloudscope: invalid config: " + strings.Join(msgs, "; ")
}

// Unwrap exposes the individual field errors to errors.Is/As.
func (e *ValidationError) Unwrap() []error {
	errs := make([]error, len(e.Fields))
	for i, f := range e.Fields {
		errs[i] = f
	}
	return errs
}

// Validate checks the config for impossible sizings and conflicting
// option combinations, returning a *ValidationError naming every bad
// field. Zero sizing values are valid — NewStudy fills them from
// DefaultConfig — but negative ones never are. NewStudy panics on an
// invalid config (a programmer error); commands validate first and
// print the typed error instead.
func (c Config) Validate() error {
	var fields []*FieldError
	add := func(field string, value any, reason string) {
		fields = append(fields, &FieldError{Field: field, Value: value, Reason: reason})
	}
	if c.Domains < 0 {
		add("Domains", c.Domains, "ranked-list size cannot be negative (0 selects the default)")
	}
	if c.Vantages < 0 {
		add("Vantages", c.Vantages, "vantage count cannot be negative (0 selects the default)")
	}
	if c.CaptureFlows < 0 {
		add("CaptureFlows", c.CaptureFlows, "capture flow count cannot be negative (0 selects the default)")
	}
	if c.WANClients < 0 {
		add("WANClients", c.WANClients, "WAN client count cannot be negative (0 selects the default)")
	}
	if c.Workers < 0 {
		add("Workers", c.Workers, "worker bound cannot be negative (0 means GOMAXPROCS)")
	}
	if c.Chaos != nil && c.ChaosReplay != nil {
		add("ChaosReplay", "<trace>", "a replayed trace conflicts with a live Chaos scenario; set only one")
	}
	if c.ChaosRecord && c.Chaos == nil {
		add("ChaosRecord", true, "recording needs a Chaos scenario to draw faults from")
	}
	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}

// withDefaults fills zero sizing fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Domains == 0 {
		c.Domains = def.Domains
	}
	if c.Vantages == 0 {
		c.Vantages = def.Vantages
	}
	if c.CaptureFlows == 0 {
		c.CaptureFlows = def.CaptureFlows
	}
	if c.WANClients == 0 {
		c.WANClients = def.WANClients
	}
	return c
}

// stageCell memoizes one pipeline stage's result. Unlike sync.Once it
// memoizes only success: a build aborted by context cancellation
// leaves the cell empty, so the next caller retries under its own
// context. The mutex doubles as single-flight — concurrent callers of
// the same stage wait for the in-progress build instead of duplicating
// it.
type stageCell[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// get returns the memoized value, building it under ctx if needed.
func (c *stageCell[T]) get(ctx context.Context, build func() (T, error)) (T, error) {
	var zero T
	if err := ctxErr(ctx); err != nil {
		return zero, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.val, nil
	}
	// Re-check after the wait: the caller may have been cancelled while
	// another request's build held the lock.
	if err := ctxErr(ctx); err != nil {
		return zero, err
	}
	v, err := build()
	if err != nil {
		return zero, err
	}
	c.val, c.done = v, true
	return v, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// recoverCancel runs fn, converting a context-cancellation panic — the
// pipeline stages re-raise worker errors, and with a cancellable
// parallel.Options.Ctx those errors are context errors — back into an
// ordinary error return. Any other panic propagates.
func recoverCancel[T any](fn func() T) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := v.(error); ok && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
				err = e
				return
			}
			panic(v)
		}
	}()
	return fn(), nil
}

// must unwraps a stage result whose build ran without a cancellable
// context, where errors are impossible by construction.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// captureResult pairs the capture stage's two outputs in one cell.
type captureResult struct {
	truth *capture.Truth
	an    *capture.Analysis
}

// Study runs the paper's pipeline over one generated world. All stages
// are computed lazily and memoized; a Study is safe for concurrent use.
// Each accessor has a *Context variant that aborts stage compute (via
// internal/parallel's between-shard cancellation) when ctx is
// cancelled; an aborted stage is retried by the next caller.
type Study struct {
	Cfg Config

	// tel is the study's observability handle (nil with NoTelemetry);
	// dnsMetrics is shared by every resolver the pipeline creates, and
	// simClock is published once the world's fabric exists so spans can
	// charge simulated time.
	tel        *telemetry.Telemetry
	dnsMetrics *dnssrv.ResolverMetrics
	simClock   atomic.Pointer[simnet.Clock]

	// eng is the fault engine built from Cfg.Chaos or Cfg.ChaosReplay
	// (nil without either); rec captures its verdicts under ChaosRecord.
	eng *chaos.Engine
	rec *trace.Recorder

	world    stageCell[*deploy.World]
	ds       stageCell[*dataset.Dataset]
	det      stageCell[*patterns.Result]
	reg      stageCell[*regions.Analysis]
	zone     stageCell[*zones.Study]
	capt     stageCell[captureResult]
	ns       stageCell[*patterns.NSAnalysis]
	campaign stageCell[*wanperf.Campaign]
}

// NewStudy creates a Study; the world is generated on first use. It
// panics when cfg fails Validate — call Validate first to handle the
// typed error.
func NewStudy(cfg Config) *Study {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	s := &Study{Cfg: cfg}
	if !cfg.NoTelemetry {
		s.tel = telemetry.New()
		s.tel.Tracer().SetSimClock(func() time.Time {
			if c := s.simClock.Load(); c != nil {
				return c.Now()
			}
			return time.Time{}
		})
		s.dnsMetrics = dnssrv.NewResolverMetrics(s.tel.Registry())
	}
	if cfg.ChaosReplay != nil {
		s.eng = chaos.NewReplay(cfg.ChaosReplay)
	} else {
		s.eng = chaos.New(cfg.Chaos, cfg.Seed)
		if cfg.ChaosRecord && s.eng != nil {
			s.rec = trace.NewRecorder(trace.Header{
				Scenario: cfg.Chaos.Name,
				Spec:     cfg.Chaos.String(),
				Seed:     cfg.Seed,
			})
			s.eng.SetRecorder(s.rec)
		}
	}
	return s
}

// Chaos returns the study's fault engine (nil when no scenario is set).
func (s *Study) Chaos() *chaos.Engine { return s.eng }

// FaultTrace returns the canonical fault trace recorded so far (run the
// experiments first, then snapshot). Nil unless the study was built
// with ChaosRecord and a scenario. Replaying the returned trace with
// the same Config reproduces this run's outputs byte-identically.
func (s *Study) FaultTrace() *trace.Trace { return s.rec.Snapshot() }

// WriteFaultTrace writes the recorded fault trace to path in the JSONL
// trace format (see internal/chaos/trace). It errors when the study is
// not recording.
func (s *Study) WriteFaultTrace(path string) error {
	tr := s.FaultTrace()
	if tr == nil {
		return errNotRecording
	}
	return tr.WriteFile(path)
}

var errNotRecording = errors.New("cloudscope: study is not recording a fault trace (set Config.ChaosRecord with a Chaos scenario)")

// BisectFaultTrace delta-debugs a recorded fault trace: it returns a
// locally-minimal sub-trace whose replay under cfg still makes pred
// true, plus the number of study runs spent. pred is handed a fresh
// Study replaying each candidate; typical predicates re-run an
// experiment and compare against a fault-free golden, or check
// Completeness().Degraded(). cfg's own Chaos/ChaosRecord/ChaosReplay
// are overridden per candidate.
func BisectFaultTrace(cfg Config, tr *trace.Trace, pred func(*Study) bool) (*trace.Trace, int) {
	return trace.Minimize(tr, func(cand *trace.Trace) bool {
		c := cfg
		c.Chaos, c.ChaosRecord, c.ChaosReplay = nil, false, cand
		return pred(NewStudy(c))
	})
}

// Completeness returns the study's measurement-coverage accounting: how
// much of each stage's planned probing was attempted, retried, and
// abandoned. Nil with NoTelemetry; empty until stages run.
func (s *Study) Completeness() *telemetry.Completeness { return s.tel.Completeness() }

// Par builds the fan-out options a pipeline stage should run with: the
// study's worker bound plus that stage's parallel.<stage>.* instruments
// (inert when telemetry is off). Use it to run the measurement
// libraries' options-struct entry points (wanperf.Options.Par,
// cartography.Options.Par, zones.Config.Par) under a study's worker
// budget and metrics; results are bit-identical at every worker count.
func (s *Study) Par(stage string) parallel.Options {
	return parallel.Options{
		Workers: s.Cfg.Workers,
		Metrics: parallel.NewMetrics(s.tel.Registry(), stage).WithSpans(s.tel.Tracer()),
	}
}

// parCtx is Par bound to a request context: the stage's fan-out aborts
// between shards once ctx is cancelled.
func (s *Study) parCtx(ctx context.Context, stage string) parallel.Options {
	opt := s.Par(stage)
	opt.Ctx = ctx
	return opt
}

// Telemetry returns the study's observability handle: the metric
// registry every instrumented layer (fabric, resolvers, cloud and WAN
// probing) reports into, and the tracer holding the per-stage span
// tree. It is nil when the study was built with NoTelemetry.
func (s *Study) Telemetry() *telemetry.Telemetry { return s.tel }

// World returns the generated ground-truth world.
func (s *Study) World() *deploy.World { return must(s.WorldContext(context.Background())) }

// WorldContext is World under a cancellable context: generation aborts
// between shards when ctx is cancelled, and the next caller retries.
func (s *Study) WorldContext(ctx context.Context) (*deploy.World, error) {
	return s.world.get(ctx, func() (*deploy.World, error) {
		return recoverCancel(func() *deploy.World {
			defer s.tel.StartSpan("study/world").End()
			wcfg := deploy.DefaultConfig().Scaled(s.Cfg.Domains)
			wcfg.Seed = s.Cfg.Seed
			wcfg.Par = s.parCtx(ctx, "world")
			w := deploy.Generate(wcfg)
			s.simClock.Store(w.Fabric.Clock())
			if s.eng != nil {
				w.Fabric.SetInterceptor(s.eng)
			}
			if s.tel != nil {
				reg := s.tel.Registry()
				w.Fabric.SetMetrics(simnet.NewFabricMetrics(reg))
				w.EC2.SetMetrics(cloud.NewProbeMetrics(reg, "ec2"))
				w.Azure.SetMetrics(cloud.NewProbeMetrics(reg, "azure"))
			}
			return w
		})
	})
}

// Dataset runs the §2.1 discovery pipeline (memoized).
func (s *Study) Dataset() *dataset.Dataset { return must(s.DatasetContext(context.Background())) }

// DatasetContext is Dataset under a cancellable context.
func (s *Study) DatasetContext(ctx context.Context) (*dataset.Dataset, error) {
	return s.ds.get(ctx, func() (*dataset.Dataset, error) {
		w, err := s.WorldContext(ctx) // before the span, so the simulated clock is wired
		if err != nil {
			return nil, err
		}
		return recoverCancel(func() *dataset.Dataset {
			sp := s.tel.StartSpan("study/dataset")
			defer sp.End()
			names := make([]string, 0, len(w.Domains))
			for _, d := range w.Domains {
				names = append(names, d.Name)
			}
			dcfg := dataset.Config{
				Fabric:       w.Fabric,
				Registry:     w.Registry,
				Ranges:       w.Ranges,
				Domains:      names,
				Vantages:     s.Cfg.Vantages,
				Metrics:      s.dnsMetrics,
				Workers:      s.Cfg.Workers,
				Ctx:          ctx,
				ParMetrics:   parallel.NewMetrics(s.tel.Registry(), "dataset").WithSpans(s.tel.Tracer()),
				Completeness: s.tel.Completeness(),
			}
			if s.eng != nil {
				// Under chaos the pipeline hardens: retries with backoff,
				// a generous per-domain budget so pathological domains
				// cannot stall the crawl, and a per-vantage breaker.
				dcfg.Chaos = s.eng
				dcfg.Backoff = dnssrv.Backoff{MaxAttempts: 6, Base: 100 * time.Millisecond, Max: 2 * time.Second}
				dcfg.MaxQueriesPerDomain = 4096
				dcfg.DomainDeadline = 10 * time.Minute
				dcfg.BreakerFailures = 4
			}
			return dataset.Build(dcfg)
		})
	})
}

// Detection runs §4.1's pattern heuristics (memoized).
func (s *Study) Detection() *patterns.Result { return must(s.DetectionContext(context.Background())) }

// DetectionContext is Detection under a cancellable context.
func (s *Study) DetectionContext(ctx context.Context) (*patterns.Result, error) {
	return s.det.get(ctx, func() (*patterns.Result, error) {
		ds, err := s.DatasetContext(ctx) // resolve dependencies outside the span
		if err != nil {
			return nil, err
		}
		return recoverCancel(func() *patterns.Result {
			defer s.tel.StartSpan("study/detect").End()
			return patterns.DetectAllPar(ds, s.parCtx(ctx, "detect"))
		})
	})
}

// Breakdown computes Table 3.
func (s *Study) Breakdown() *classify.Breakdown {
	return must(s.BreakdownContext(context.Background()))
}

// BreakdownContext is Breakdown under a cancellable context.
func (s *Study) BreakdownContext(ctx context.Context) (*classify.Breakdown, error) {
	ds, err := s.DatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	defer s.tel.StartSpan("study/classify").End()
	return classify.Classify(ds), nil
}

// Regions runs §4.2's region mapping (memoized).
func (s *Study) Regions() *regions.Analysis { return must(s.RegionsContext(context.Background())) }

// RegionsContext is Regions under a cancellable context.
func (s *Study) RegionsContext(ctx context.Context) (*regions.Analysis, error) {
	return s.reg.get(ctx, func() (*regions.Analysis, error) {
		ds, err := s.DatasetContext(ctx)
		if err != nil {
			return nil, err
		}
		det, err := s.DetectionContext(ctx)
		if err != nil {
			return nil, err
		}
		return recoverCancel(func() *regions.Analysis {
			defer s.tel.StartSpan("study/regions").End()
			return regions.AnalyzePar(ds, det, s.parCtx(ctx, "regions"))
		})
	})
}

// Zones runs §4.3's cartography study (memoized).
func (s *Study) Zones() *zones.Study { return must(s.ZonesContext(context.Background())) }

// ZonesContext is Zones under a cancellable context.
func (s *Study) ZonesContext(ctx context.Context) (*zones.Study, error) {
	return s.zone.get(ctx, func() (*zones.Study, error) {
		ds, err := s.DatasetContext(ctx)
		if err != nil {
			return nil, err
		}
		det, err := s.DetectionContext(ctx)
		if err != nil {
			return nil, err
		}
		w, err := s.WorldContext(ctx)
		if err != nil {
			return nil, err
		}
		return recoverCancel(func() *zones.Study {
			defer s.tel.StartSpan("study/zones").End()
			cfg := zones.DefaultConfig()
			cfg.Seed = s.Cfg.Seed
			cfg.Par = s.parCtx(ctx, "zones")
			cfg.Chaos = s.eng
			cfg.Completeness = s.tel.Completeness()
			return zones.Run(ds, det, w.EC2, cfg)
		})
	})
}

// NameServers runs §4.1's DNS-hosting analysis (memoized).
func (s *Study) NameServers() *patterns.NSAnalysis {
	return must(s.NameServersContext(context.Background()))
}

// NameServersContext is NameServers under a cancellable context.
func (s *Study) NameServersContext(ctx context.Context) (*patterns.NSAnalysis, error) {
	return s.ns.get(ctx, func() (*patterns.NSAnalysis, error) {
		w, err := s.WorldContext(ctx)
		if err != nil {
			return nil, err
		}
		ds, err := s.DatasetContext(ctx)
		if err != nil {
			return nil, err
		}
		return recoverCancel(func() *patterns.NSAnalysis {
			defer s.tel.StartSpan("study/nameservers").End()
			return patterns.AnalyzeNSPar(ds, w.Fabric, w.Registry, 50, s.dnsMetrics, s.parCtx(ctx, "nameservers"))
		})
	})
}

// Capture generates and analyzes the border trace (memoized). The pcap
// bytes are ephemeral; use WriteCapture to keep them.
func (s *Study) Capture() (*capture.Truth, *capture.Analysis) {
	r, err := s.CaptureContext(context.Background())
	if err != nil {
		panic(err)
	}
	return r.truth, r.an
}

// CaptureContext is Capture under a cancellable context.
func (s *Study) CaptureContext(ctx context.Context) (captureResult, error) {
	return s.capt.get(ctx, func() (captureResult, error) {
		w, err := s.WorldContext(ctx)
		if err != nil {
			return captureResult{}, err
		}
		return recoverCancel(func() captureResult {
			defer s.tel.StartSpan("study/capture").End()
			ccfg := capture.DefaultConfig()
			ccfg.Seed = s.Cfg.Seed
			ccfg.Flows = s.Cfg.CaptureFlows
			ccfg.Par = s.parCtx(ctx, "capture")
			ccfg.Chaos = s.eng
			var buf bytes.Buffer
			g := capture.NewGenerator(ccfg, w)
			truth, err := g.Generate(pcapio.NewWriter(&buf, ccfg.Snaplen))
			if err != nil {
				panic(err) // bytes.Buffer writes cannot fail
			}
			an, err := capture.AnalyzeOpts(&buf, w.Ranges, capture.AnalyzeOptions{
				Par:          s.parCtx(ctx, "capture_analyze"),
				Completeness: s.tel.Completeness(),
			})
			if err != nil {
				panic(err)
			}
			return captureResult{truth: truth, an: an}
		})
	})
}

// Truth returns the capture result's ground truth.
func (r captureResult) Truth() *capture.Truth { return r.truth }

// Analysis returns the capture result's analyzer output.
func (r captureResult) Analysis() *capture.Analysis { return r.an }

// WriteCapture streams a fresh pcap of the study's capture to w.
type pcapWriter interface{ Write(p []byte) (int, error) }

// WriteCapture writes the synthetic border capture in pcap format.
func (s *Study) WriteCapture(w pcapWriter) (*capture.Truth, error) {
	ccfg := capture.DefaultConfig()
	ccfg.Seed = s.Cfg.Seed
	ccfg.Flows = s.Cfg.CaptureFlows
	ccfg.Par = s.Par("capture")
	ccfg.Chaos = s.eng
	g := capture.NewGenerator(ccfg, s.World())
	return g.Generate(pcapio.NewWriter(w, ccfg.Snaplen))
}

// Campaign returns the §5 wide-area measurement campaign (memoized).
func (s *Study) Campaign() *wanperf.Campaign {
	return must(s.campaignBase(context.Background()))
}

// CampaignContext is Campaign under a cancellable context: the
// returned value shares the memoized campaign's model and seeding but
// carries its own fan-out options bound to ctx, so matrix and
// time-series computation aborts between shards when the request is
// cancelled. The memoized campaign itself stays context-free.
func (s *Study) CampaignContext(ctx context.Context) (*wanperf.Campaign, error) {
	c, err := s.campaignBase(ctx)
	if err != nil {
		return nil, err
	}
	cc := *c
	cc.Par.Ctx = ctx
	return &cc, nil
}

func (s *Study) campaignBase(ctx context.Context) (*wanperf.Campaign, error) {
	return s.campaign.get(ctx, func() (*wanperf.Campaign, error) {
		defer s.tel.StartSpan("study/wanperf").End()
		c := wanperf.NewCampaign(s.Cfg.Seed, s.Cfg.WANClients, ipranges.EC2Regions)
		c.Par = s.Par("wanperf")
		c.Model.Par = s.Par("wanperf")
		if s.tel != nil {
			c.Model.SetMetrics(wan.NewMetrics(s.tel.Registry()))
		}
		if s.eng != nil {
			c.Chaos = s.eng
			c.Completeness = s.tel.Completeness()
			// Regional brownouts reach the WAN model as extra path
			// delay; the fault phase is the campaign-time fraction, a
			// pure function of t.
			eng, start := s.eng, c.Start
			span := c.Interval * time.Duration(c.Rounds)
			c.Model.SetChaos(func(_, region string, t time.Time) float64 {
				phase := float64(t.Sub(start)) / float64(span)
				if phase < 0 {
					phase = 0
				} else if phase > 1 {
					phase = 1
				}
				return eng.RegionExtraMs(region, phase)
			})
		}
		return c, nil
	})
}

// RankOf implements the classify and regions Ranker interfaces against
// the study's ranked list.
func (s *Study) RankOf(domain string) int {
	if d, ok := s.World().List.Lookup(domain); ok {
		return d.Rank
	}
	return 0
}

// ZoneIdentification re-exports the combined cartography result.
func (s *Study) ZoneIdentification() *cartography.CombinedResult { return s.Zones().Combined }
