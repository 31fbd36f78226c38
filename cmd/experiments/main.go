// Command experiments regenerates every table and figure of the paper
// in one run.
//
// Usage:
//
//	experiments [-domains N] [-seed S] [-flows N] [-only table9,figure12]
//	experiments -only discovery|zones|wan   # one measurement leg
//	experiments -json study.json        # the daemon's V1 document, offline
//	experiments -chaos hostile -chaos-record trace.jsonl
//	experiments -chaos-replay trace.jsonl
//	experiments -chaos-bisect trace.jsonl -only table9
//	experiments -chaos-diff A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudscope"
	"cloudscope/api"
	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/cliflags"
	"cloudscope/internal/stats"
)

func main() {
	domains := flag.Int("domains", 20000, "ranked-list size (the paper's top 1M, scaled)")
	seed := flag.Int64("seed", 1, "world seed")
	flows := flag.Int("flows", 30000, "border-capture flows")
	vantages := flag.Int("vantages", 200, "distributed DNS vantage points")
	only := flag.String("only", "", "comma-separated experiment IDs or groups (discovery, zones, wan; default: all)")
	plotdata := flag.String("plotdata", "", "directory to write per-figure TSV series into")
	bisect := flag.String("chaos-bisect", "",
		"delta-debug the fault trace in this file to a minimal sub-trace that still changes the selected experiments' output from the fault-free run; prints the culprits and writes <file>.min")
	chaosDiff := flag.String("chaos-diff", "",
		"compare the fault trace in this file against a second trace (the positional argument, or 'A.jsonl,B.jsonl') and print the verdict delta; exits 1 when they differ")
	streamOut := flag.String("stream-out", "dataset.txt",
		"dataset output path for -stream (- for stdout)")
	jsonOut := flag.String("json", "",
		"also write the study's answers as the versioned V1 JSON document cloudscoped serves (- for stdout)")
	shared := cliflags.Register(flag.CommandLine)
	streaming := cliflags.RegisterStreaming(flag.CommandLine)
	flag.Parse()

	if err := streaming.Validate(); err != nil {
		fatal(err)
	}

	if *chaosDiff != "" {
		// Diffing two recorded traces runs no study; the shared study
		// flags would be inert, so reject them loudly.
		if err := shared.RejectStudyFlags("experiments -chaos-diff"); err != nil {
			fatal(err)
		}
		identical, err := cliflags.DiffTraces(*chaosDiff, flag.Arg(0), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !identical {
			os.Exit(1)
		}
		return
	}

	cfg := cloudscope.Config{Seed: *seed, Domains: *domains, CaptureFlows: *flows, Vantages: *vantages}
	if err := shared.Apply(&cfg); err != nil {
		fatal(err)
	}

	if streaming.Stream {
		// The streaming data path produces the released-dataset artifact
		// in bounded memory — the Alexa-1M-scale run the in-memory study
		// cannot hold. The tables and figures need the memoized study, so
		// they run without -stream at a size that fits.
		if *only != "" {
			fatal(fmt.Errorf("-stream writes the dataset artifact and runs no experiments; drop -only or -stream"))
		}
		if *jsonOut != "" {
			fatal(fmt.Errorf("-json needs the memoized study; drop -stream"))
		}
		if err := shared.RejectStudyFlags("experiments -stream"); err != nil {
			fatal(err)
		}
		out := os.Stdout
		if *streamOut != "-" {
			f, err := os.Create(*streamOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		start := time.Now()
		st, err := cloudscope.StreamDataset(cfg, streaming.ChunkSize, streaming.SpillDir, out)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "streamed dataset: %d domains scanned, %d cloud subdomains, %d queries -> %s (%.1fs wall, chunks of %d)\n",
			st.DomainsScanned, st.CloudSubdomains, st.QueriesIssued, *streamOut, time.Since(start).Seconds(), streaming.ChunkSize)
		if err := shared.FinishProfiles(); err != nil {
			fatal(err)
		}
		return
	}

	want := map[string]bool{}
	var legs []string
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		if g, ok := groups[id]; ok {
			legs = append(legs, id)
			for _, gid := range g.ids {
				want[gid] = true
			}
		} else if id != "" {
			want[id] = true
		}
	}

	if *bisect != "" {
		if cfg.Chaos != nil || cfg.ChaosReplay != nil {
			fatal(fmt.Errorf("-chaos-bisect replays sub-traces of the recorded run; drop -chaos/-chaos-replay"))
		}
		runBisect(cfg, *bisect, want)
		return
	}

	study := cloudscope.NewStudy(cfg)
	if err := shared.Start(study.Telemetry()); err != nil {
		fatal(err)
	}
	ran := 0
	for _, e := range cloudscope.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		out := e.Run(study)
		fmt.Printf("==== %s: %s (%.1fs) ====\n%s\n", e.ID, e.Title, time.Since(start).Seconds(), out)
		ran++
		if *plotdata != "" {
			if series, ok := study.FigureSeries(e.ID); ok {
				if err := writeTSV(*plotdata, e.ID, series); err != nil {
					fatal(err)
				}
			}
		}
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched -only; known IDs:")
		for _, e := range cloudscope.Experiments() {
			fmt.Fprintln(os.Stderr, "  "+e.ID)
		}
		fmt.Fprintln(os.Stderr, "groups: discovery, zones, wan")
		os.Exit(1)
	}
	for _, name := range legs {
		fmt.Printf("==== %s summary ====\n%s\n", name, groups[name].summary(study))
	}
	if shared.Faulting() {
		fmt.Printf("==== completeness ====\n%s\n", study.Completeness().Report())
	}
	if *jsonOut != "" {
		if err := writeStudyJSON(*jsonOut, study); err != nil {
			fatal(err)
		}
	}
	if err := shared.Finish(os.Stdout, study); err != nil {
		fatal(err)
	}
}

// groups are the named -only selections, one per measurement leg: each
// expands to that leg's experiments and adds its summary lines.
var groups = map[string]struct {
	ids     []string
	summary func(*cloudscope.Study) string
}{
	"discovery": {[]string{"table3", "table4", "table7", "table9"}, func(s *cloudscope.Study) string {
		ds := s.Dataset()
		return fmt.Sprintf("scanned %d domains, %d queries, %d AXFR successes (%.1f simulated probe-days serial)\n"+
			"subdomains seen: %d; cloud-using: %d under %d domains\n",
			ds.Stats.DomainsScanned, ds.Stats.QueriesIssued, ds.Stats.AXFRSuccesses,
			ds.Stats.SerialProbeTime.Hours()/24,
			ds.Stats.SubdomainsSeen, ds.Stats.CloudSubdomains, len(ds.CloudDomains()))
	}},
	"zones": {[]string{"table12", "table13", "table14", "table15", "figure7", "figure8"}, func(s *cloudscope.Study) string {
		z := s.Zones()
		return fmt.Sprintf("targets: %d physical EC2 instances; combined coverage %.1f%%\n",
			len(z.Targets), 100*z.Combined.Coverage())
	}},
	"wan": {[]string{"figure9", "figure10", "figure11", "figure12", "table11", "table16"}, func(s *cloudscope.Study) string {
		res := s.Campaign().Outages(3, 50)
		var b strings.Builder
		b.WriteString("Route-outage simulation (mean fraction of clients cut off):\n")
		for k := 1; k <= 3; k++ {
			fmt.Fprintf(&b, "  k=%d regions: %.4f\n", k, res.MeanUnreachable[k])
		}
		return b.String()
	}},
}

// runBisect shrinks a recorded fault trace to a locally-minimal
// sub-trace whose replay still changes the selected experiments'
// output from the fault-free run.
func runBisect(cfg cloudscope.Config, path string, want map[string]bool) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	golden := outputs(cloudscope.NewStudy(cfg), want)
	diverges := func(s *cloudscope.Study) bool { return outputs(s, want) != golden }

	full := cfg
	full.ChaosReplay = tr
	if !diverges(cloudscope.NewStudy(full)) {
		fatal(fmt.Errorf("replaying %s does not change the selected experiments' output; nothing to bisect", path))
	}
	fmt.Printf("trace %s: %d events under scenario %q (seed %d); bisecting...\n",
		path, tr.Len(), tr.Header.Scenario, tr.Header.Seed)

	min, replays := cloudscope.BisectFaultTrace(cfg, tr, diverges)
	fmt.Printf("minimal culprit set: %d of %d events (%d replays)\n", min.Len(), tr.Len(), replays)
	for _, ev := range min.Events {
		line := fmt.Sprintf("  %-8s %-12s phase=%.3f id=%016x", ev.Point, ev.Kind, ev.Phase, ev.ID)
		if ev.Name != "" {
			line += " " + ev.Name
		}
		if ev.Cause != "" {
			line += " cause=" + ev.Cause
		}
		fmt.Println(line)
	}
	out := path + ".min"
	if err := min.WriteFile(out); err != nil {
		fatal(err)
	}
	fmt.Printf("minimal trace written to %s (replay with -chaos-replay %s)\n", out, out)
}

// outputs concatenates the selected experiments' text plus the
// completeness report — the byte string record/replay/bisect compare.
func outputs(s *cloudscope.Study, want map[string]bool) string {
	var b strings.Builder
	for _, e := range cloudscope.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		b.WriteString(e.Run(s))
	}
	b.WriteString(s.Completeness().Report())
	return b.String()
}

// writeStudyJSON emits the same versioned document a cloudscoped
// daemon would serve for this world: the V1 study DTO inside an
// api.Envelope (epoch 0 — there is no serving epoch here), so offline
// runs and the daemon are byte-compatible consumers of one schema.
func writeStudyJSON(path string, study *cloudscope.Study) error {
	doc, err := api.Study(context.Background(), study)
	if err != nil {
		return err
	}
	env := api.NewEnvelope("study", 0, study, doc)
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func writeTSV(dir, id string, series map[string][]stats.Point) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + id + ".tsv")
	if err != nil {
		return err
	}
	defer f.Close()
	return cloudscope.WriteSeriesTSV(f, series)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
