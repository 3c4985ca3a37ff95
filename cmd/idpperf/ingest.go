package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ingestSource is the workload whose HC-SD-remapped synthetic stream
// the ingest files carry.
var ingestSource = trace.Financial

// ingestFormats lists the trace files in pass order.
var ingestFormats = []trace.Format{trace.FormatNative, trace.FormatSPC, trace.FormatMSR, trace.FormatBlkparse}

// ingest is the trace-ingestion path: setup writes one synthetic stream
// in all four formats the readers understand, and each pass gives every
// file one streaming profile pass (trace.OpenFile + AnalyzeStream, what
// traceinfo does) and one replay onto an HC-SD drive (what idpsim
// -replay does). It is the only workload that runs the trace readers
// and the one-pass analyzer. The files are written once per setup, so
// every pass of a run reads the same inputs.
type ingest struct {
	sc  scale
	dir string
}

func (in *ingest) path(f trace.Format) string {
	return filepath.Join(in.dir, "ingest."+string(f))
}

func (in *ingest) setup(seed int64) error {
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
	spec := ingestSource().WithRequests(in.sc.IngestRequests)
	offsets, err := experiments.HCSDOffsets(spec)
	if err != nil {
		return err
	}
	for _, f := range ingestFormats {
		g, err := trace.NewGenerator(spec, seed)
		if err != nil {
			return err
		}
		if err := writeTrace(in.path(f), f, trace.RemapStream(g, offsets)); err != nil {
			return fmt.Errorf("writing %s trace: %w", f, err)
		}
	}
	return nil
}

func (in *ingest) close() error {
	for _, f := range ingestFormats {
		if err := os.Remove(in.path(f)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// fileOp is one pass over one trace file: a profile or a replay.
type fileOp struct {
	f      trace.Format
	replay bool
}

func (o fileOp) name() string {
	if o.replay {
		return "replay." + string(o.f)
	}
	return "profile." + string(o.f)
}

// pass fans the eight file passes out through the fleet, like every
// other workload's simulations, and renders them in file order.
func (in *ingest) pass(_ int64, c *collector) (*passOut, error) {
	out := newPassOut(c)
	var fops []fileOp
	for _, f := range ingestFormats {
		fops = append(fops, fileOp{f: f}, fileOp{f: f, replay: true})
	}
	ms := make([]float64, len(fops))
	jobs := make([]fleet.Job[string], len(fops))
	for i, fo := range fops {
		i, fo := i, fo
		jobs[i] = fleet.Job[string]{Name: fo.name(), Run: func(context.Context, int64) (string, error) {
			start := nanotime()
			defer func() { ms[i] = float64(nanotime()-start) / 1e6 }()
			if fo.replay {
				return in.replay(c, fo.f)
			}
			return in.profile(c, fo.f)
		}}
	}
	opts := fleet.Options{Parallelism: in.sc.Workers}
	var texts []string
	var err error
	if c == nil {
		texts, err = fleet.Run(jobs, opts)
	} else {
		texts, err = runJobs(c, jobs, opts)
	}
	for i, fo := range fops {
		out.ops = append(out.ops, op{name: fo.name(), ms: ms[i], failed: err != nil})
	}
	if err != nil {
		return out, err
	}
	out.simReqs = int64(len(ingestFormats) * in.sc.IngestRequests)
	out.render(func(o io.Writer) {
		for _, t := range texts {
			io.WriteString(o, t)
		}
	})
	return out, nil
}

// profile makes one streaming profile pass over f's file and renders
// its stats.
func (in *ingest) profile(c *collector, f trace.Format) (string, error) {
	rd, err := trace.OpenFile(in.path(f), trace.ReaderOpts{})
	if err != nil {
		return "", err
	}
	defer rd.Close()
	if rd.Format() != f {
		return "", fmt.Errorf("%s file sniffed as %s", f, rd.Format())
	}
	var st trace.Stats
	if c == nil {
		st, err = trace.AnalyzeStream(rd)
	} else {
		st, err = job(c, "profile/"+string(f), func(t *tracer) (trace.Stats, error) {
			sp := t.begin(kAnalyze)
			st, err := trace.AnalyzeStream(&streamWrap{inner: rd, t: t, k: readKind(f)})
			t.end(kAnalyze, sp)
			return st, err
		})
	}
	if err == nil && st.Requests != in.sc.IngestRequests {
		err = fmt.Errorf("%s profile saw %d of %d requests", f, st.Requests, in.sc.IngestRequests)
	}
	if err != nil {
		return "", err
	}
	var b strings.Builder
	trace.WriteStats(&b, string(f), st)
	return b.String(), nil
}

// replay replays f's file onto an HC-SD drive and renders the response
// summary.
func (in *ingest) replay(c *collector, f trace.Format) (string, error) {
	rd, err := trace.OpenFile(in.path(f), trace.ReaderOpts{})
	if err != nil {
		return "", err
	}
	defer rd.Close()
	var resp *stats.Sample
	if c == nil {
		eng := simkit.New()
		d, err := disk.New(eng, disk.BarracudaES(), disk.Options{})
		if err != nil {
			return "", err
		}
		resp, err = experiments.ReplayStream(eng, d, rd)
	} else {
		resp, err = job(c, "replay/"+string(f), func(t *tracer) (*stats.Sample, error) {
			e := newSeqEngine(t)
			d, err := disk.New(e.sched(kDiskEvent), disk.BarracudaES(), disk.Options{})
			if err != nil {
				return nil, err
			}
			resp, err := e.replay(c, top(d, t, kDiskSubmit), &streamWrap{inner: rd, t: t, k: readKind(f)})
			if err == nil {
				c.noteDevice(d)
			}
			return resp, err
		})
	}
	if err == nil && resp.Count() != in.sc.IngestRequests {
		err = fmt.Errorf("%s replay completed %d of %d requests", f, resp.Count(), in.sc.IngestRequests)
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s replay on HC-SD: %s\n", f, resp.Summarize()), nil
}

// writeTrace writes s to path in format f, in the units each format's
// reader expects: SPC and blkparse timestamps in seconds, MSR in
// Windows 100-ns ticks and bytes. Arrivals round monotonically, so the
// files stay sorted.
func writeTrace(path string, f trace.Format, s trace.Stream) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if f == trace.FormatNative {
		_, err = trace.WriteStream(file, s)
	} else {
		err = writeForeign(file, f, s)
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// msrTickBase is a 2007-era Windows timestamp, so the MSR reader does
// its large-tick arithmetic as it would on the real captures.
const msrTickBase = 128166372000000000

func writeForeign(w io.Writer, f trace.Format, s trace.Stream) error {
	bw := bufio.NewWriter(w)
	seq := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		seq++
		bytes := int64(r.Sectors) * 512
		switch f {
		case trace.FormatSPC:
			op := "w"
			if r.Read {
				op = "r"
			}
			fmt.Fprintf(bw, "%d,%d,%d,%s,%.6f\n", r.Disk, r.LBA, bytes, op, r.ArrivalMs/1000)
		case trace.FormatMSR:
			op := "Write"
			if r.Read {
				op = "Read"
			}
			ticks := msrTickBase + int64(r.ArrivalMs*1e4+0.5)
			fmt.Fprintf(bw, "%d,hcsd,%d,%s,%d,%d,0\n", ticks, r.Disk, op, r.LBA*512, bytes)
		case trace.FormatBlkparse:
			op := "W"
			if r.Read {
				op = "R"
			}
			fmt.Fprintf(bw, "8,0 0 %d %.9f 4242 Q %s %d + %d [idpperf]\n", seq, r.ArrivalMs/1000, op, r.LBA, r.Sectors)
		default:
			return fmt.Errorf("no writer for format %s", f)
		}
	}
	if err := trace.Err(s); err != nil {
		return err
	}
	return bw.Flush()
}
