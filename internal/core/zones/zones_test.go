package zones

import (
	"testing"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
	"cloudscope/internal/stats"
)

var (
	world = deploy.Generate(deploy.DefaultConfig().Scaled(1500))
	ds    = buildDataset()
	det   = patterns.DetectAllPar(ds, parallel.Options{})
	study = Run(ds, det, world.EC2, DefaultConfig())
)

func buildDataset() *dataset.Dataset {
	names := make([]string, 0, len(world.Domains))
	for _, d := range world.Domains {
		names = append(names, d.Name)
	}
	return dataset.Build(dataset.Config{
		Fabric:   world.Fabric,
		Registry: world.Registry,
		Ranges:   world.Ranges,
		Domains:  names,
		Vantages: 30,
	})
}

type ranker struct{}

func (ranker) RankOf(domain string) int {
	if d, ok := world.List.Lookup(domain); ok {
		return d.Rank
	}
	return 0
}

func TestTargetsResolved(t *testing.T) {
	if len(study.Targets) < 150 {
		t.Fatalf("targets = %d", len(study.Targets))
	}
	for _, tgt := range study.Targets {
		if tgt.Region == "" || tgt.PublicIP == 0 {
			t.Fatalf("bad target %+v", tgt)
		}
	}
}

func TestCombinedCoverage(t *testing.T) {
	if cov := study.Combined.Coverage(); cov < 0.70 || cov > 1.0 {
		t.Fatalf("combined coverage %.2f, want ~0.87", cov)
	}
}

func TestCombinedAccuracyAgainstTruth(t *testing.T) {
	correct, wrong := 0, 0
	for _, tgt := range study.Targets {
		id := study.Combined.ByIP[tgt.PublicIP]
		if id.Zone < 0 {
			continue
		}
		trueZone := study.Ref.TrueZone(tgt.Region, string(rune('a'+id.Zone)))
		if trueZone == tgt.ZoneIndex {
			correct++
		} else {
			wrong++
		}
	}
	if correct+wrong == 0 {
		t.Fatal("nothing identified")
	}
	if acc := float64(correct) / float64(correct+wrong); acc < 0.85 {
		t.Fatalf("combined accuracy %.2f", acc)
	}
}

func TestZonesPerSubdomainDistribution(t *testing.T) {
	counts := study.ZonesPerSubdomain()
	if len(counts) < 100 {
		t.Fatalf("subdomains with zones = %d", len(counts))
	}
	cdf := stats.NewCDF(counts)
	one := cdf.At(1)
	two := cdf.At(2) - cdf.At(1)
	three := 1 - cdf.At(2)
	// Paper: 33.2% one zone, 44.5% two, 22.3% three+. Allow wide bands
	// (identification noise shifts mass toward fewer zones).
	if one < 0.18 || one > 0.60 {
		t.Fatalf("one-zone share %.2f, want ~0.33", one)
	}
	if two < 0.20 || two > 0.62 {
		t.Fatalf("two-zone share %.2f, want ~0.45", two)
	}
	if three < 0.05 || three > 0.40 {
		t.Fatalf("three-zone share %.2f, want ~0.22", three)
	}
}

func TestZoneUsageSkewUSEast(t *testing.T) {
	subCounts, domCounts := study.ZoneUsage()
	var east [3]int
	for z, n := range subCounts {
		if z.Region == "ec2.us-east-1" && z.Zone < 3 {
			east[z.Zone] = n
		}
	}
	total := east[0] + east[1] + east[2]
	if total < 50 {
		t.Skipf("too few us-east zone identifications (%d)", total)
	}
	// Skew: most and least popular zones differ substantially.
	max, min := east[0], east[0]
	for _, n := range east[1:] {
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max < min*3/2 {
		t.Fatalf("us-east zone usage not skewed: %v", east)
	}
	for z, n := range domCounts {
		if n > subCounts[z] {
			t.Fatalf("zone %v: domains %d > subdomains %d", z, n, subCounts[z])
		}
	}
}

func TestMultiRegionZoneShareSmall(t *testing.T) {
	if s := study.MultiRegionZoneShare(); s > 0.25 {
		t.Fatalf("multi-region share among multi-zone subs %.2f, want ~0.03", s)
	}
}

func TestTable12Rows(t *testing.T) {
	rows := study.Table12()
	if len(rows) == 0 {
		t.Fatal("no Table 12 rows")
	}
	var east *Table12Row
	for i := range rows {
		if rows[i].Region == "ec2.us-east-1" {
			east = &rows[i]
		}
		if rows[i].Responding > rows[i].Targets {
			t.Fatalf("%s: responding > targets", rows[i].Region)
		}
	}
	if east == nil || east.Targets < 50 {
		t.Fatalf("us-east row missing or thin: %+v", east)
	}
	if east.UnknownPct > 40 {
		t.Fatalf("us-east unknown %.1f%%, want ~17%%", east.UnknownPct)
	}
}

func TestTable13ErrorOrdering(t *testing.T) {
	rows := study.Table13()
	byRegion := map[string]float64{}
	for _, r := range rows {
		byRegion[r.Region] = r.ErrorRate()
	}
	if rows[0].Region != "all" {
		t.Fatal("first row should be 'all'")
	}
	if east, ok := byRegion["ec2.us-east-1"]; ok && east > 0.10 {
		t.Fatalf("us-east error %.3f", east)
	}
	if west, ok := byRegion["ec2.eu-west-1"]; ok {
		if west < byRegion["ec2.us-east-1"] {
			t.Fatalf("eu-west error %.3f below us-east %.3f", west, byRegion["ec2.us-east-1"])
		}
	}
}

func TestTable15TopDomains(t *testing.T) {
	rows := study.TopDomains(ranker{}, 10)
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.K[1]+r.K[2]+r.K[3] != r.Subs {
			t.Fatalf("%s: K sums %d != subs %d", r.Domain, r.K[1]+r.K[2]+r.K[3], r.Subs)
		}
		if r.TotalZones == 0 {
			t.Fatalf("%s: no zones", r.Domain)
		}
	}
}

func TestFigure7SeriesSegregate(t *testing.T) {
	series := study.Figure7Points()
	if len(series) < 2 {
		t.Fatalf("zones in scatter = %d", len(series))
	}
	// /16s segregate: a /16 never appears in two zones' series.
	owner := map[uint32]int{}
	for zone, pts := range series {
		for _, p := range pts {
			p16 := uint32(p.X) &^ 0xffff
			if prev, ok := owner[p16]; ok && prev != zone {
				t.Fatalf("/16 %x in zones %d and %d", p16, prev, zone)
			}
			owner[p16] = zone
		}
	}
}
