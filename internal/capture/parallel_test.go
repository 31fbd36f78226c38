package capture

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
)

// genBytes renders one capture to pcap bytes plus its ground truth.
func genBytes(t testing.TB, cfg Config) ([]byte, *Truth) {
	t.Helper()
	var buf bytes.Buffer
	g := NewGenerator(cfg, capWorld)
	truth, err := g.Generate(pcapio.NewWriter(&buf, cfg.Snaplen))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), truth
}

// TestGenerateWorkerCountInvariant checks the emitted pcap and ground
// truth are byte-identical at every worker bound AND every shard
// layout. Flows draw from per-flow sub-streams keyed by (seed, flow
// index) and events sort under a strict total order, so the capture is
// a pure function of seed + world; the golden here is the sequential
// default-layout run and every other (workers, shard-size) combination
// must reproduce it exactly. This replaces the earlier weaker golden
// that compared worker counts only within a fixed shard layout —
// per-shard streams made each layout its own universe, which this test
// would have caught as a difference. Run under -race this doubles as
// the generator's concurrency stress test.
func TestGenerateWorkerCountInvariant(t *testing.T) {
	cfg := testCfg(900)
	cfg.Par = parallel.Options{Workers: 1, ShardSize: 0}
	golden, goldenTruth := genBytes(t, cfg)
	goldenSum := sha256.Sum256(golden)
	for _, workers := range []int{1, 2, 4} {
		for _, shard := range []int{0, 1, 23, 64} {
			if workers == 1 && shard == 0 {
				continue
			}
			pcfg := cfg
			pcfg.Par = parallel.Options{Workers: workers, ShardSize: shard}
			got, truth := genBytes(t, pcfg)
			if sha256.Sum256(got) != goldenSum {
				t.Errorf("pcap bytes differ at Workers=%d ShardSize=%d", workers, shard)
			}
			if !reflect.DeepEqual(truth, goldenTruth) {
				t.Errorf("ground truth differs at Workers=%d ShardSize=%d", workers, shard)
			}
		}
	}
}

// TestAnalyzeWorkerCountInvariant checks the analyzer's speculative
// pre-decode fan-out reconstructs exactly the sequential analysis.
func TestAnalyzeWorkerCountInvariant(t *testing.T) {
	raw, _ := genBytes(t, testCfg(900))
	golden, err := AnalyzeOpts(bytes.NewReader(raw), capWorld.Ranges, AnalyzeOptions{Par: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		for _, shard := range []int{1, 64} {
			got, err := AnalyzeOpts(bytes.NewReader(raw), capWorld.Ranges,
				AnalyzeOptions{Par: parallel.Options{Workers: workers, ShardSize: shard}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, golden) {
				t.Errorf("analysis differs at Workers=%d ShardSize=%d", workers, shard)
			}
		}
	}
}
