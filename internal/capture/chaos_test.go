package capture

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/telemetry"
)

// chaosCfg builds a capture config running under a library scenario.
func chaosCfg(t testing.TB, flows int, scenario string, seed int64) Config {
	t.Helper()
	sc, err := chaos.Load(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(flows)
	cfg.Seed = seed
	cfg.Chaos = chaos.New(sc, seed)
	return cfg
}

// TestCaptureFaultDeterminism: the faulted pcap is still a pure
// function of seed + world — byte-identical, with identical ground
// truth and identical completeness accounting, at every worker count
// and shard layout, for multiple seeds. This is the tentpole guarantee:
// fault verdicts are hash draws over flow identity, never over
// execution layout.
func TestCaptureFaultDeterminism(t *testing.T) {
	completenessOf := func(raw []byte) []telemetry.StageCompleteness {
		tel := telemetry.NewCompleteness()
		if _, err := AnalyzeOpts(bytes.NewReader(raw), capWorld.Ranges,
			AnalyzeOptions{Completeness: tel}); err != nil {
			t.Fatal(err)
		}
		return tel.Snapshot()
	}
	for _, seed := range []int64{3, 11} {
		cfg := chaosCfg(t, 900, "hostile-capture", seed)
		cfg.Par = parallel.Options{Workers: 1, ShardSize: 0}
		golden, goldenTruth := genBytes(t, cfg)
		goldenSum := sha256.Sum256(golden)
		goldenComp := completenessOf(golden)
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, shard := range []int{0, 1, 23, 64} {
				if workers == 1 && shard == 0 {
					continue
				}
				pcfg := chaosCfg(t, 900, "hostile-capture", seed)
				pcfg.Par = parallel.Options{Workers: workers, ShardSize: shard}
				got, truth := genBytes(t, pcfg)
				if sha256.Sum256(got) != goldenSum {
					t.Errorf("seed %d: faulted pcap differs at Workers=%d ShardSize=%d", seed, workers, shard)
				}
				if !reflect.DeepEqual(truth, goldenTruth) {
					t.Errorf("seed %d: ground truth differs at Workers=%d ShardSize=%d", seed, workers, shard)
				}
				if !reflect.DeepEqual(completenessOf(got), goldenComp) {
					t.Errorf("seed %d: completeness differs at Workers=%d ShardSize=%d", seed, workers, shard)
				}
			}
		}
	}
}

// TestCaptureFaultsObservable: every fault kind in the lossy-capture
// scenario fires, the ground truth counts it, and the hardened analyzer
// folds the damage into symptoms instead of failing.
func TestCaptureFaultsObservable(t *testing.T) {
	clean, cleanTruth := genBytes(t, testCfg(1200))
	cfg := chaosCfg(t, 1200, "lossy-capture", 1)
	raw, truth := genBytes(t, cfg)

	for _, k := range []chaos.Kind{chaos.CapTruncate, chaos.CapRST, chaos.CapReorder,
		chaos.CapCorrupt, chaos.CapDrop} {
		if truth.Faults[string(k)] == 0 {
			t.Errorf("fault %s never fired (faults: %v)", k, truth.Faults)
		}
	}
	if len(cleanTruth.Faults) != 0 {
		t.Fatalf("fault counts without a chaos engine: %v", cleanTruth.Faults)
	}

	tel := telemetry.NewCompleteness()
	a, err := AnalyzeOpts(bytes.NewReader(raw), capWorld.Ranges, AnalyzeOptions{Completeness: tel})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := AnalyzeOpts(bytes.NewReader(clean), capWorld.Ranges, AnalyzeOptions{Par: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.RSTFlows == 0 || a.Reordered == 0 || a.PartialTCP == 0 {
		t.Fatalf("symptoms unseen: rst=%d reordered=%d partial=%d", a.RSTFlows, a.Reordered, a.PartialTCP)
	}
	if ca.RSTFlows != 0 || ca.Reordered != 0 || ca.PartialTCP != 0 {
		t.Fatalf("clean capture reports symptoms: rst=%d reordered=%d partial=%d",
			ca.RSTFlows, ca.Reordered, ca.PartialTCP)
	}
	if a.DecodeErrs == 0 {
		t.Fatal("no corrupted frame produced a decode error")
	}
	if a.Records >= ca.Records {
		t.Fatalf("dropped records did not shrink the capture: %d vs clean %d", a.Records, ca.Records)
	}

	// Partial flows keep a volume estimate: total analyzed volume stays
	// within sight of the clean capture's rather than collapsing.
	var cleanVol, faultVol int64
	for _, f := range ca.Flows {
		cleanVol += f.Bytes()
	}
	for _, f := range a.Flows {
		faultVol += f.Bytes()
	}
	if faultVol < cleanVol/2 {
		t.Fatalf("faulted volume %d collapsed vs clean %d — partial-flow estimation lost", faultVol, cleanVol)
	}

	// Completeness tells the same story through the telemetry stage.
	flows, ok := tel.Stage("capture/flows")
	if !ok || flows.Attempted == 0 {
		t.Fatal("no capture/flows completeness recorded")
	}
	if flows.Retried == 0 {
		t.Fatal("no partial flow recovered through sequence bookkeeping")
	}
	frames, ok := tel.Stage("capture/frames")
	if !ok || frames.Abandoned == 0 || frames.Attempted != int64(a.Records) {
		t.Fatalf("capture/frames accounting off: %+v vs %d records", frames, a.Records)
	}
	if frames.Attempted != frames.Succeeded+frames.Abandoned {
		t.Fatalf("frames invariant broken: %+v", frames)
	}
}

// TestAnalyzeTruncatedPcap: a capture chopped mid-record surfaces as a
// typed ErrTruncated from the analyzer — never a panic, never a silent
// partial result.
func TestAnalyzeTruncatedPcap(t *testing.T) {
	raw, _ := genBytes(t, testCfg(40))
	for _, cut := range []int{len(raw) - 5, 24 + 8} {
		_, err := AnalyzeOpts(bytes.NewReader(raw[:cut]), capWorld.Ranges, AnalyzeOptions{Par: parallel.Options{Workers: 1}})
		if !errors.Is(err, pcapio.ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	// A cut at a record boundary is a clean EOF, not an error.
	rd, err := pcapio.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	boundary := 24 + 16 + len(rec.Data)
	if _, err := AnalyzeOpts(bytes.NewReader(raw[:boundary]), capWorld.Ranges, AnalyzeOptions{Par: parallel.Options{Workers: 1}}); err != nil {
		t.Fatalf("boundary cut: %v", err)
	}
}

// TestCaptureChaosRace is the -race smoke: a faulted generate+analyze
// at full parallelism, exercising the chaos draw path from every
// worker. Verdicts are pure hashes, so there is nothing to synchronize
// — this test proves it.
func TestCaptureChaosRace(t *testing.T) {
	cfg := chaosCfg(t, 600, "hostile-capture", 7)
	cfg.Par = parallel.Options{Workers: runtime.GOMAXPROCS(0), ShardSize: 16}
	raw, _ := genBytes(t, cfg)
	if _, err := AnalyzeOpts(bytes.NewReader(raw), capWorld.Ranges,
		AnalyzeOptions{Par: parallel.Options{Workers: runtime.GOMAXPROCS(0), ShardSize: 8}}); err != nil {
		t.Fatal(err)
	}
}
