// Command traceanalyze runs the Bro-style analyzer over a pcap file
// (e.g. one written by worldgen) and prints the §3 tables. With
// -chaos-diff it instead compares two recorded fault traces:
//
//	traceanalyze capture.pcap
//	traceanalyze -chaos-diff A.jsonl B.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudscope/internal/capture"
	"cloudscope/internal/cliflags"
	"cloudscope/internal/core/traffic"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
)

func main() {
	chaosDiff := flag.String("chaos-diff", "",
		"compare the fault trace in this file against a second trace (the positional argument, or 'A.jsonl,B.jsonl') and print the verdict delta; exits 1 when they differ")
	shared := cliflags.Register(flag.CommandLine)
	flag.Parse()
	// The flags are registered identically across all commands, but this
	// one analyzes an existing capture and runs no study — say so rather
	// than silently ignoring a chaos or telemetry request. The pprof
	// flags still apply: profiling the analyzer is their point here.
	if err := shared.RejectStudyFlags("traceanalyze"); err != nil {
		fatal(err)
	}
	if *chaosDiff != "" {
		identical, err := cliflags.DiffTraces(*chaosDiff, flag.Arg(0), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !identical {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceanalyze [-workers n] [-cpuprofile f] [-memprofile f] <capture.pcap>")
		os.Exit(2)
	}
	if err := shared.Start(nil); err != nil {
		fatal(err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	an, err := capture.AnalyzeOpts(f, ipranges.Published(), capture.AnalyzeOptions{Par: parallel.Options{Workers: shared.Workers}})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flows: %d (decode errors: %d)\n\n", len(an.Flows), an.DecodeErrs)
	fmt.Println(traffic.Table1(an))
	fmt.Println(traffic.Table2(an))
	fmt.Println(traffic.Table5(an, 15))
	fmt.Println(traffic.Table6(an, 10))
	if err := shared.FinishProfiles(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceanalyze:", err)
	os.Exit(1)
}
