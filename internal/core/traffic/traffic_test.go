package traffic

import (
	"bytes"
	"strings"
	"testing"

	"cloudscope/internal/capture"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
)

var analysis = buildAnalysis()

func buildAnalysis() *capture.Analysis {
	world := deploy.Generate(deploy.DefaultConfig().Scaled(1000))
	cfg := capture.DefaultConfig()
	cfg.Flows = 3000
	var buf bytes.Buffer
	g := capture.NewGenerator(cfg, world)
	if _, err := g.Generate(pcapio.NewWriter(&buf, cfg.Snaplen)); err != nil {
		panic(err)
	}
	a, err := capture.AnalyzeOpts(&buf, world.Ranges, capture.AnalyzeOptions{Par: parallel.Options{Workers: 1}})
	if err != nil {
		panic(err)
	}
	return a
}

func TestTable1(t *testing.T) {
	s := Table1(analysis).String()
	for _, want := range []string{"EC2", "Azure", "Total", "100.00"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2(t *testing.T) {
	s := Table2(analysis).String()
	for _, want := range []string{"HTTP (TCP)", "HTTPS (TCP)", "DNS (UDP)", "ICMP"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, s)
		}
	}
}

func TestTable5(t *testing.T) {
	s := Table5(analysis, 15).String()
	if !strings.Contains(s, "dropbox.com") {
		t.Fatalf("Table 5 missing dropbox:\n%s", s)
	}
	if !strings.Contains(s, "atdmt.com") && !strings.Contains(s, "msn.com") {
		t.Fatalf("Table 5 missing Azure leaders:\n%s", s)
	}
}

func TestTable6(t *testing.T) {
	s := Table6(analysis, 10).String()
	for _, want := range []string{"text/html", "text/plain"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 6 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure3Series(t *testing.T) {
	series := Figure3(analysis)
	if len(series) != 8 {
		t.Fatalf("series = %d, want 8", len(series))
	}
	for name, pts := range series {
		if len(pts) == 0 {
			t.Fatalf("series %q empty", name)
		}
		last := pts[len(pts)-1]
		if last.Y != 1 {
			t.Fatalf("series %q CDF does not reach 1 (%.2f)", name, last.Y)
		}
	}
}
