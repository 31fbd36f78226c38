package capture

import (
	"bytes"
	"testing"

	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
)

func BenchmarkAnalyze(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Flows = 2000
	var buf bytes.Buffer
	g := NewGenerator(cfg, capWorld)
	if _, err := g.Generate(pcapio.NewWriter(&buf, cfg.Snaplen)); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeOpts(bytes.NewReader(raw), capWorld.Ranges, AnalyzeOptions{Par: parallel.Options{Workers: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Flows = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		var buf bytes.Buffer
		g := NewGenerator(cfg, capWorld)
		if _, err := g.Generate(pcapio.NewWriter(&buf, cfg.Snaplen)); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
