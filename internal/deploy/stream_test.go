package deploy

import (
	"runtime"
	"testing"
	"time"

	"cloudscope/internal/telemetry"
	"cloudscope/internal/telemetry/runtimeprof"
)

// TestStreamingPeakHeapBudget holds the streaming generator to its
// memory ceiling: a 100K-domain world, built chunk by chunk with each
// chunk released, must never hold more than 200 MB of live heap. The
// in-memory build of the same world needs over a gigabyte.
func TestStreamingPeakHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 100K-domain world")
	}
	const size, budgetMB = 100000, 200
	// The sampler ratchets absolute HeapAlloc, so drop earlier tests'
	// dead heap first. Two collections: sync.Pool contents survive one
	// GC in the victim cache.
	runtime.GC()
	runtime.GC()
	reg := telemetry.NewRegistry()
	sampler := runtimeprof.Start(reg, 10*time.Millisecond)

	cfg := DefaultConfig().Scaled(size)
	cfg.Seed = 1
	ws := GenerateStream(cfg, 4096)
	n := 0
	for chunk := ws.Next(); chunk != nil; chunk = ws.Next() {
		n += len(chunk.Domains)
		ws.Release(chunk)
	}
	sampler.Stop()
	if n != size {
		t.Fatalf("streamed %d domains, want %d", n, size)
	}
	peakMB := float64(reg.Gauge("runtime.peak_heap_alloc_bytes").Value()) / 1e6
	if peakMB <= 0 || peakMB > budgetMB {
		t.Fatalf("streaming %d-domain world peaked at %.1f MB, budget %d MB", size, peakMB, budgetMB)
	}
	t.Logf("peak heap %.1f MB", peakMB)
}
