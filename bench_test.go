package cloudscope

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment, named after its number) plus the
// ablation benches DESIGN.md calls out. Expensive pipeline stages
// (world generation, DNS discovery, capture synthesis) run once and are
// shared; each benchmark measures regenerating its result from them.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudscope/internal/capture"
	"cloudscope/internal/cartography"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core/backend"
	"cloudscope/internal/core/classify"
	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/core/regions"
	"cloudscope/internal/core/traffic"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/telemetry/runtimeprof"
	"cloudscope/internal/wan"
	"cloudscope/internal/wordlist"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// study prepares the shared pipeline state once.
func study(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = NewStudy(Config{Seed: 3, Domains: 1500, Vantages: 30, CaptureFlows: 4000, WANClients: 60})
		benchStudy.Dataset()
		benchStudy.Detection()
		benchStudy.Capture()
	})
	return benchStudy
}

func BenchmarkTable1(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.Table1(an)
	}
}

func BenchmarkTable2(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.Table2(an)
	}
}

func BenchmarkTable3(b *testing.B) {
	s := study(b)
	ds := s.Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = classify.Classify(ds)
	}
}

func BenchmarkTable4(b *testing.B) {
	s := study(b)
	ds := s.Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = classify.TopEC2Domains(ds, s, 10)
	}
}

func BenchmarkTable5(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.Table5(an, 15)
	}
}

func BenchmarkTable6(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.Table6(an, 10)
	}
}

func BenchmarkTable7(b *testing.B) {
	ds := study(b).Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = patterns.DetectAllPar(ds, parallel.Options{})
	}
}

func BenchmarkTable8(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runTable8(s)
	}
}

func BenchmarkTable9(b *testing.B) {
	s := study(b)
	ds, det := s.Dataset(), s.Detection()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = regions.AnalyzePar(ds, det, parallel.Options{})
	}
}

func BenchmarkTable10(b *testing.B) {
	s := study(b)
	s.Regions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runTable10(s)
	}
}

func BenchmarkTable11(b *testing.B) {
	// A fresh cloud per iteration: the experiment launches probe and
	// target instances, and unbounded iteration against one shared
	// world would slowly drain its address space.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ec2 := cloud.NewEC2(int64(i))
		_ = wanperf.IntraCloudRTTs(ec2, "ec2.us-east-1", wanperf.Options{Seed: int64(i), Par: parallel.Options{Workers: 1}})
	}
}

func BenchmarkTable12(b *testing.B) {
	s := study(b)
	z := s.Zones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Table12()
	}
}

func BenchmarkTable13(b *testing.B) {
	z := study(b).Zones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Table13()
	}
}

func BenchmarkTable14(b *testing.B) {
	z := study(b).Zones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = z.ZoneUsage()
	}
}

func BenchmarkTable15(b *testing.B) {
	s := study(b)
	z := s.Zones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.TopDomains(s, 10)
	}
}

func BenchmarkTable16(b *testing.B) {
	s := study(b)
	m := s.Campaign().Model
	zoneCounts := map[string]int{}
	for _, r := range ipranges.EC2Regions {
		zoneCounts[r] = s.World().EC2.ZoneCount(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wanperf.ISPDiversity(m, zoneCounts, wanperf.Options{Seed: int64(i), Par: parallel.Options{Workers: 1}})
	}
}

func BenchmarkFigure3(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.Figure3(an)
	}
}

func BenchmarkFigure4(b *testing.B) {
	det := study(b).Detection()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.VMInstanceCounts()
		_ = det.ELBInstanceCounts()
	}
}

func BenchmarkFigure5(b *testing.B) {
	s := study(b)
	w := s.World()
	ds := s.Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = patterns.AnalyzeNSPar(ds, w.Fabric, w.Registry, 20, nil, parallel.Options{Workers: 1})
	}
}

func BenchmarkFigure6(b *testing.B) {
	reg := study(b).Regions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.RegionCountCDF(ipranges.EC2)
		_ = reg.DomainAvgRegionCDF(ipranges.EC2)
	}
}

func BenchmarkFigure7(b *testing.B) {
	z := study(b).Zones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Figure7Points()
	}
}

func BenchmarkFigure8(b *testing.B) {
	z := study(b).Zones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.ZonesPerSubdomain()
		_ = z.AvgZonesPerDomain()
	}
}

func BenchmarkFigure9(b *testing.B) {
	c := study(b).Campaign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Matrix(wan.MetricThroughput, usRegions, 15)
	}
}

func BenchmarkFigure10(b *testing.B) {
	c := study(b).Campaign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Matrix(wan.MetricLatency, usRegions, 15)
	}
}

func BenchmarkFigure11(b *testing.B) {
	c := study(b).Campaign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.TimeSeries("Boulder", usRegions)
	}
}

func BenchmarkFigure12(b *testing.B) {
	c := study(b).Campaign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.OptimalK(wan.MetricLatency, 4)
	}
}

// --- End-to-end pipeline stages ---------------------------------------

func BenchmarkPipelineWorldGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewStudy(Config{Seed: int64(i + 10), Domains: 500, Vantages: 10, CaptureFlows: 500}).World()
	}
}

func BenchmarkPipelineDiscovery(b *testing.B) {
	w := study(b).World()
	names := make([]string, 0, 300)
	for _, d := range w.Domains[:300] {
		names = append(names, d.Name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dataset.Build(dataset.Config{
			Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
			Domains: names, Vantages: 10,
		})
	}
}

func BenchmarkPipelineCaptureGen(b *testing.B) {
	w := study(b).World()
	cfg := capture.DefaultConfig()
	cfg.Flows = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		var buf bytes.Buffer
		g := capture.NewGenerator(cfg, w)
		if _, err := g.Generate(pcapio.NewWriter(&buf, cfg.Snaplen)); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// --- Worker-pool scaling -----------------------------------------------

var (
	benchWorkersOnce  sync.Once
	benchWorkersStudy *Study
)

// workersStudy prepares the 10K-domain study the scaling benchmark
// shards, with the expensive one-off stages (world, discovery, zone
// cartography targets) prebuilt and shared.
func workersStudy(b *testing.B) *Study {
	b.Helper()
	benchWorkersOnce.Do(func() {
		benchWorkersStudy = NewStudy(Config{
			Seed: 9, Domains: 10000, Vantages: 20, CaptureFlows: 1000, WANClients: 80,
			NoTelemetry: true,
		})
		benchWorkersStudy.Dataset()
		benchWorkersStudy.Detection()
		benchWorkersStudy.Zones()
		benchWorkersStudy.Campaign()
	})
	return benchWorkersStudy
}

// BenchmarkPipelineWorkers measures one pass of every parallelized
// analysis stage — pattern detection, region mapping, zone latency
// probing, and the WAN matrix — at fixed worker counts over the
// 10K-domain study. Outputs are bit-identical across sub-benchmarks;
// only the wall clock moves.
func BenchmarkPipelineWorkers(b *testing.B) {
	s := workersStudy(b)
	ds := s.Dataset()
	ec2 := s.World().EC2
	targets := s.Zones().Targets
	campaign := s.Campaign()
	latCfg := cartography.DefaultLatencyConfig()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := parallel.Options{Workers: workers}
			acct := ec2.NewAccount(fmt.Sprintf("pipeworkers-%d", workers))
			campaign.Par = opt
			campaign.Model.Par = opt
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := patterns.DetectAllPar(ds, opt)
				_ = regions.AnalyzePar(ds, d, opt)
				_ = cartography.IdentifyByLatency(ec2, acct, targets, latCfg, cartography.Options{Seed: int64(i), Par: opt})
				_ = campaign.Matrix(wan.MetricLatency, usRegions, 0)
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationZoneThreshold sweeps the latency method's T and
// reports unknown/error trade-offs as metrics.
func BenchmarkAblationZoneThreshold(b *testing.B) {
	s := study(b)
	ec2 := s.World().EC2
	targets := s.Zones().Targets
	for _, tMs := range []float64{0.7, 0.9, 1.1, 1.5, 2.0} {
		b.Run(fmt.Sprintf("T=%.1fms", tMs), func(b *testing.B) {
			cfg := cartography.DefaultLatencyConfig()
			cfg.ThresholdMs = tMs
			acct := ec2.NewAccount(fmt.Sprintf("ablation-%d", int(tMs*10)))
			var unknownRate float64
			for i := 0; i < b.N; i++ {
				res := cartography.IdentifyByLatency(ec2, acct, targets, cfg, cartography.Options{Seed: int64(i), Par: parallel.Options{}})
				var unknown, responding int
				for _, rr := range res {
					unknown += rr.Unknown
					responding += rr.Responding
				}
				if responding > 0 {
					unknownRate = float64(unknown) / float64(responding)
				}
			}
			b.ReportMetric(100*unknownRate, "%unknown")
		})
	}
}

// BenchmarkAblationWordlist measures discovery recall vs dictionary size.
func BenchmarkAblationWordlist(b *testing.B) {
	s := study(b)
	w := s.World()
	names := make([]string, 0, 400)
	for _, d := range w.Domains[:400] {
		names = append(names, d.Name)
	}
	full := wordlist.Common()
	for _, frac := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("words=%d%%", frac), func(b *testing.B) {
			words := full[:len(full)*frac/100]
			var found int
			for i := 0; i < b.N; i++ {
				ds := dataset.Build(dataset.Config{
					Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
					Domains: names, Wordlist: words, Vantages: 5,
				})
				found = ds.Stats.CloudSubdomains
			}
			b.ReportMetric(float64(found), "cloud-subs")
		})
	}
}

// BenchmarkAblationVantages measures record discovery vs vantage count.
func BenchmarkAblationVantages(b *testing.B) {
	s := study(b)
	w := s.World()
	names := make([]string, 0, 400)
	for _, d := range w.Domains[:400] {
		names = append(names, d.Name)
	}
	for _, v := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("vantages=%d", v), func(b *testing.B) {
			var ips int
			for i := 0; i < b.N; i++ {
				ds := dataset.Build(dataset.Config{
					Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
					Domains: names, Vantages: v,
				})
				ips = 0
				for _, o := range ds.Subdomains {
					ips += len(o.IPs)
				}
			}
			b.ReportMetric(float64(ips), "records")
		})
	}
}

// BenchmarkAblationProximityPrefix sweeps the /16 granularity.
func BenchmarkAblationProximityPrefix(b *testing.B) {
	s := study(b)
	z := s.Zones()
	for _, bits := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("prefix=%d", bits), func(b *testing.B) {
			var matched int
			for i := 0; i < b.N; i++ {
				idx := z.PM.Index("ec2.us-east-1", bits)
				matched = 0
				for _, t := range z.Targets {
					if t.Region != "ec2.us-east-1" {
						continue
					}
					if _, ok := cartography.IdentifyAt(idx, t.InternalIP, bits); ok {
						matched++
					}
				}
			}
			b.ReportMetric(float64(matched), "matched")
		})
	}
}

// BenchmarkAblationGreedyK compares greedy and exhaustive planners.
func BenchmarkAblationGreedyK(b *testing.B) {
	c := study(b).Campaign()
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c.OptimalK(wan.MetricLatency, 5)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c.GreedyK(wan.MetricLatency, 5)
		}
	})
}

// BenchmarkAblationCartographyDensity sweeps proximity sampling density.
// Each iteration samples a fresh cloud: repeated sampling against one
// shared world would eventually drain a small region's public pool.
func BenchmarkAblationCartographyDensity(b *testing.B) {
	for _, perZone := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("perZone=%d", perZone), func(b *testing.B) {
			var covered float64
			for i := 0; i < b.N; i++ {
				ec2 := cloud.NewEC2(int64(i))
				targets := make([]*cloud.Instance, 0, 120)
				for j := 0; j < 120; j++ {
					targets = append(targets, ec2.Launch("ec2.us-east-1", j%3, "m1.small", cloud.KindVM))
				}
				ref := ec2.NewAccount(fmt.Sprintf("dens-%d-%d", perZone, i))
				samples := cartography.SampleAccounts(ec2, ref, 3, perZone, cartography.Options{Seed: int64(i), Par: parallel.Options{Workers: 1}})
				pm := cartography.MergeAccounts(samples, "", cartography.Options{Par: parallel.Options{Workers: 1}})
				hit := 0
				for _, t := range targets {
					if _, ok := pm.Identify(t.Region, t.InternalIP); ok {
						hit++
					}
				}
				covered = float64(hit) / float64(len(targets))
			}
			b.ReportMetric(100*covered, "%coverage")
		})
	}
}

// --- Extension experiments ---------------------------------------------

func BenchmarkExtensionBackend(b *testing.B) {
	w := study(b).World()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = backend.Analyze(w)
	}
}

func BenchmarkExtensionCompression(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.EstimateCompression(an)
	}
}

func BenchmarkExtensionDurations(b *testing.B) {
	_, an := study(b).Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traffic.Durations(an, ipranges.EC2, capture.KindHTTPS, false)
	}
}

func BenchmarkExtensionOutage(b *testing.B) {
	s := study(b)
	reg := s.Regions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.RegionOutages()
		_, _ = reg.HeadlineImpact("ec2.us-east-1", s.Cfg.Domains, len(s.World().CloudDomains))
	}
}

// --- Telemetry overhead ------------------------------------------------

// BenchmarkTelemetryOverhead measures the full discovery pipeline with
// telemetry on (the default), on with the runtime sampler running, and
// off. The instrumented hot paths pay atomic increments when enabled
// and a nil check when disabled; the sampler adds one ReadMemStats per
// interval on its own goroutine. All three sub-benchmarks should stay
// within a few percent of each other.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, noTel, sample bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			s := NewStudy(Config{
				Seed: 11, Domains: 200, Vantages: 10,
				CaptureFlows: 100, WANClients: 8, NoTelemetry: noTel,
			})
			var smp *runtimeprof.Sampler
			if sample {
				smp = runtimeprof.Start(s.Telemetry().Registry(), 10*time.Millisecond)
			}
			ds := s.Dataset()
			smp.Stop()
			if ds.Stats.QueriesIssued == 0 {
				b.Fatal("pipeline produced no queries")
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) { run(b, false, false) })
	b.Run("instrumented+sampler", func(b *testing.B) { run(b, false, true) })
	b.Run("noop", func(b *testing.B) { run(b, true, false) })
}
