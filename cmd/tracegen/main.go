// Command tracegen synthesizes workload traces in the repository's text
// trace format and writes them to stdout or a file. With -convert it
// instead ingests an existing trace in any supported format (SPC CSV,
// MSR CSV, blkparse text, or native — auto-detected) and re-emits it in
// the native format, streaming line by line.
//
// Usage:
//
//	tracegen -workload Financial -requests 100000 -seed 1 > fin.trc
//	tracegen -synthetic 4ms -capacity 1465000000 -requests 100000
//	tracegen -convert websearch.spc -o websearch.trc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "", "commercial workload name (Financial, Websearch, TPC-C, TPC-H)")
		synthetic = flag.String("synthetic", "", "synthetic intensity: 8ms, 4ms, or 1ms (§7.3 workloads)")
		convert   = flag.String("convert", "", "ingest this trace file (format auto-detected) and emit it in the native format")
		capacity  = flag.Int64("capacity", 1465000000, "logical capacity in sectors for synthetic streams")
		requests  = flag.Int("requests", 100000, "number of requests")
		reorder   = flag.Int("reorder", 0, "with -convert: tolerate arrivals out of order by up to N requests")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if err := run(*wl, *synthetic, *convert, *capacity, *requests, *reorder, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(wl, synthetic, convert string, capacity int64, requests, reorder int, seed int64, out string) error {
	modes := 0
	for _, m := range []string{wl, synthetic, convert} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("specify exactly one of -workload, -synthetic, or -convert")
	}
	if reorder != 0 && convert == "" {
		return fmt.Errorf("-reorder only applies with -convert")
	}
	if reorder < 0 {
		return fmt.Errorf("-reorder must be >= 0, got %d", reorder)
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// Conversion streams reader-to-writer: neither the source nor the
	// native output is ever materialized, and no comment header is
	// emitted — the output is a pure function of the input's requests.
	if convert != "" {
		rd, err := trace.OpenFile(convert, trace.ReaderOpts{ReorderWindow: reorder})
		if err != nil {
			return err
		}
		defer rd.Close()
		_, err = trace.WriteStream(w, rd)
		return err
	}

	// Synthesis streams generator-to-writer as well; only the comment
	// header distinguishes it from a conversion.
	var src trace.Stream
	var comment string
	if wl != "" {
		spec, err := trace.WorkloadByName(wl)
		if err != nil {
			return err
		}
		g, err := trace.NewGenerator(spec.WithRequests(requests), seed)
		if err != nil {
			return err
		}
		src = g
		comment = fmt.Sprintf("# workload=%s requests=%d seed=%d disks=%d\n",
			spec.Name, requests, seed, spec.Disks)
	} else {
		var in workload.Intensity
		switch synthetic {
		case "8ms":
			in = workload.Light
		case "4ms":
			in = workload.Moderate
		case "1ms":
			in = workload.Heavy
		default:
			return fmt.Errorf("unknown intensity %q (want 8ms, 4ms, 1ms)", synthetic)
		}
		g, err := workload.NewGenerator(workload.Paper(in, capacity).WithRequests(requests), seed)
		if err != nil {
			return err
		}
		src = g
		comment = fmt.Sprintf("# synthetic=%s capacity=%d requests=%d seed=%d\n",
			synthetic, capacity, requests, seed)
	}
	if _, err := io.WriteString(w, comment); err != nil {
		return err
	}
	_, err := trace.WriteStream(w, src)
	return err
}
