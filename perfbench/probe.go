package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cloudscope"
	"cloudscope/internal/capture"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
	"cloudscope/internal/wordlist"
)

const (
	// probeLookups is the brute-force-shaped LookupA sample size.
	probeLookups = 20000
	// wireMessages is how many real query/response pairs the dnswire
	// probe packs and unpacks, wireRounds times each.
	wireMessages = 2000
	wireRounds   = 10
	// costModelTolerance: dns.cost_model_ratio outside
	// [1/costModelTolerance, costModelTolerance] is flagged.
	costModelTolerance = 1.5
)

// probeSource is the probe resolver's vantage address.
var probeSource = netaddr.MustParseIP("193.5.0.7")

// dnsProbe times a seeded sample of wordlist lookups and the dnswire
// codec on a second world built from the same seed, so the study's own
// fabric and counters are untouched, then checks the cost model:
// queries x ns per lookup should match workers x discovery wall time.
func (r *run) dnsProbe(queries, datasetWall float64) error {
	ps := cloudscope.NewStudy(r.cfg)
	w := ps.World()
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	words := wordlist.Common()
	names := make([]string, probeLookups)
	for i := range names {
		names[i] = words[rng.Intn(len(words))] + "." + w.Domains[rng.Intn(len(w.Domains))].Name
	}
	rv := dnssrv.NewResolver(w.Fabric, w.Registry, probeSource)
	rv.NoRecurse = true
	rv.Metrics = dnssrv.NewResolverMetrics(ps.Telemetry().Registry())
	// Errors are answers here: most brute-force names are NXDOMAIN.
	for _, n := range names[:1000] { // warm-up, untimed
		_, _ = rv.LookupA(n)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for _, n := range names {
		_, _ = rv.LookupA(n)
	}
	lookupNs := float64(time.Since(t).Nanoseconds()) / float64(len(names))
	runtime.ReadMemStats(&m1)
	r.perLayer("dns.lookup_ns", lookupNs, "ns")
	r.perLayer("dns.lookup_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(len(names)), "count")

	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ratio := queries * lookupNs / (float64(workers) * datasetWall * 1e9)
	r.perLayer("dns.cost_model_ratio", ratio, "ratio")
	if ratio < 1/costModelTolerance || ratio > costModelTolerance {
		note("cost model gap: dns.cost_model_ratio %.3f outside [%.3f, %.3f]; a layer of discovery is unmeasured",
			ratio, 1/costModelTolerance, costModelTolerance)
	}

	// Real wire shapes: each sampled name's query and the authoritative
	// server's packed answer.
	var msgs []*dnswire.Message
	var packed [][]byte
	for i, n := range names[:wireMessages] {
		_, ips, ok := w.Registry.Authoritative(n)
		if !ok || len(ips) == 0 {
			continue
		}
		q := dnswire.NewQuery(uint16(i), n, dnswire.TypeA)
		qb, err := q.Pack()
		if err != nil {
			return fmt.Errorf("pack probe query: %w", err)
		}
		resp, _, err := w.Fabric.Query(probeSource, ips[0], qb)
		if err != nil {
			continue
		}
		m, err := dnswire.Unpack(resp)
		if err != nil {
			return fmt.Errorf("unpack probe response: %w", err)
		}
		msgs = append(msgs, q, m)
		packed = append(packed, qb, resp)
	}
	if len(msgs) == 0 {
		return fmt.Errorf("dnswire probe: no authoritative answers")
	}
	t = time.Now()
	for k := 0; k < wireRounds; k++ {
		for _, m := range msgs {
			if _, err := m.Pack(); err != nil {
				return fmt.Errorf("pack: %w", err)
			}
		}
	}
	r.perLayer("dnswire.pack_ns", float64(time.Since(t).Nanoseconds())/float64(wireRounds*len(msgs)), "ns")
	t = time.Now()
	for k := 0; k < wireRounds; k++ {
		for _, b := range packed {
			if _, err := dnswire.Unpack(b); err != nil {
				return fmt.Errorf("unpack: %w", err)
			}
		}
	}
	r.perLayer("dnswire.unpack_ns", float64(time.Since(t).Nanoseconds())/float64(wireRounds*len(packed)), "ns")
	return nil
}

// captureProbe times capture generation and analysis apart: a fresh
// pcap through Study.WriteCapture, then capture.AnalyzeOpts over it.
func (r *run) captureProbe(s *cloudscope.Study) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var buf bytes.Buffer
	t := time.Now()
	if _, err := s.WriteCapture(&buf); err != nil {
		return fmt.Errorf("write capture: %w", err)
	}
	gen := time.Since(t)
	t = time.Now()
	an, err := capture.AnalyzeOpts(bytes.NewReader(buf.Bytes()), s.World().Ranges,
		capture.AnalyzeOptions{Par: parallel.Options{Workers: r.cfg.Workers}})
	if err != nil {
		return fmt.Errorf("analyze capture: %w", err)
	}
	analyze := time.Since(t)
	runtime.ReadMemStats(&m1)
	frames := float64(an.Records)
	r.perLayer("capture.frames", frames, "count")
	r.perLayer("capture.pcap_mb", float64(buf.Len())/1e6, "MB")
	r.perLayer("capture.gen_ns_per_frame", float64(gen.Nanoseconds())/frames, "ns")
	r.perLayer("capture.analyze_ns_per_frame", float64(analyze.Nanoseconds())/frames, "ns")
	r.perLayer("capture.allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/frames, "count")
	return nil
}
