// Command helcfl-inspect summarizes JSONL training traces produced by
// `helcfl trace -out <dir>` (or any writer of internal/trace records):
// per-scheme cost totals, round-delay statistics, and the accuracy curve.
// It exits nonzero when trace.Validate rejects the records (NaN or Inf
// fields, non-positive costs, rounds out of order, cumulative totals that
// decrease):
//
//	helcfl-inspect trace1.jsonl [trace2.jsonl ...]
//	helcfl trace -preset tiny | helcfl-inspect -
//
// The trace subcommand instead reads span JSONL streams from
// `helcfl ... -trace-out` (or flight-recorder dumps) and renders the
// per-round phase cost table, phase summary, and slowest-cells report;
// it exits nonzero when a recorded round is missing a required phase:
//
//	helcfl-inspect trace [-k 5] spans.jsonl [more.jsonl ...]
package main

import (
	"fmt"
	"io"
	"os"

	"helcfl/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "helcfl-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: helcfl-inspect <trace.jsonl ...> | helcfl-inspect trace <spans.jsonl ...> (use - for stdin)")
	}
	if args[0] == "trace" {
		return runTraceCmd(args[1:])
	}
	var recs []trace.Record
	for _, name := range args {
		var r io.Reader
		if name == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		batch, err := trace.Read(r)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		recs = append(recs, batch...)
	}
	if len(recs) == 0 {
		return fmt.Errorf("no records found")
	}
	if err := trace.Validate(recs); err != nil {
		return err
	}
	fmt.Println(trace.RenderSummaries(trace.Summarize(recs)))
	chart := trace.AccuracyChart(recs)
	fmt.Println(chart)
	return nil
}
