package trace

// The Reader and Sniff as they stood before records were parsed in
// place, kept verbatim (renamed with a ref prefix) as the reference
// FuzzReaderMatchesReference checks the production Reader and Sniff
// against: the scan loop with its trim and comment skip, the hand-off
// through scanOne and a pendingReq, the bounded reorder heap, and the
// rebase and ordering checks. They run over the reference parsers of
// ref_parsers_test.go.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
	"unsafe"
)

// refLineParser parses one trimmed, non-blank, non-comment line of a
// specific format. skip=true drops the line without error (headers,
// summary sections, records that are not data I/O). Parsers validate
// every field except the arrival sign — near-sorted rebasing means an
// arrival may only be judged after reordering, which the Reader does.
// The line aliases the Reader's scan buffer and is valid only during the
// call: a parser that keeps any part of it must copy it (strings.Clone).
type refLineParser interface {
	format() Format
	parse(line string) (r Request, skip bool, err error)
}

// refReader is a streaming trace ingester: an io.Reader-backed Stream that
// scans one line at a time, normalizes units to the simulator's
// (sectors, milliseconds), rebases foreign timestamps so the first
// arrival is 0, and enforces arrival ordering — all in O(1) memory, so
// a multi-gigabyte trace replays without ever being materialized.
//
// refReader implements Stream; a parse, validation or ordering problem
// ends the stream and is reported by Err with the offending line
// number. Always check Err after Next returns false.
type refReader struct {
	sc     *bufio.Scanner
	closer io.Closer
	p      refLineParser
	opts   ReaderOpts

	lineNo  int
	err     error
	done    bool
	scanned bool // input exhausted

	rebase bool // foreign formats rebase arrivals to first = 0
	based  bool
	base   float64

	emitted  int
	prev     float64 // last emitted arrival, for ordering enforcement
	prevLine int

	// Bounded reorder buffer: a min-heap on (ArrivalMs, seq), where seq
	// preserves input order among equal arrivals.
	win []refPendingReq
	seq int
}

type refPendingReq struct {
	r    Request
	line int
	seq  int
}

// newRefReader assembles a refReader over r for the given parser. Foreign
// formats (everything but native) rebase arrivals to start at zero.
func newRefReader(r io.Reader, p refLineParser, opts ReaderOpts) *refReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if opts.ReorderWindow < 0 {
		opts.ReorderWindow = 0
	}
	return &refReader{
		sc:     sc,
		p:      p,
		opts:   opts,
		rebase: p.format() != FormatNative,
	}
}

// Format reports the format this reader parses.
func (rd *refReader) Format() Format { return rd.p.format() }

// Err reports the terminal error of the stream, if any. It is non-nil
// only after Next has returned false because of a malformed line, an
// ordering violation, or an underlying read error.
func (rd *refReader) Err() error { return rd.err }

// Next yields the stream's following request in arrival order; ok is
// false when the stream is exhausted or failed (see Err).
func (rd *refReader) Next() (Request, bool) {
	if rd.done {
		return Request{}, false
	}
	// The reorder window is a min-heap of up to W requests. Once it is
	// full, each scanned record is pushed and the least request popped
	// in one sift (a push-pop), so any record that is out of order by at
	// most W positions is restored to arrival order. With W = 0 the heap
	// stays empty and a record goes from parse to emit without passing
	// through it.
	var p refPendingReq
	for {
		if rd.scanned {
			if len(rd.win) == 0 {
				rd.done = true
				return Request{}, false
			}
			p = rd.pop()
			break
		}
		r, line, ok := rd.scanOne()
		if !ok {
			if rd.err != nil {
				rd.done = true
				return Request{}, false
			}
			rd.scanned = true
			continue
		}
		p = refPendingReq{r: r, line: line, seq: rd.seq}
		rd.seq++
		if len(rd.win) < rd.opts.ReorderWindow {
			rd.push(p)
			continue
		}
		if len(rd.win) > 0 && rd.win[0].before(&p) {
			p, rd.win[0] = rd.win[0], p
			rd.down()
		}
		break
	}

	// Rebase before the ordering check so both sides of the comparison
	// live in the same (rebased) time domain; the base is the first
	// *emitted* arrival, so reordering composes with rebasing.
	if rd.rebase {
		if !rd.based {
			rd.based = true
			rd.base = p.r.ArrivalMs
		}
		p.r.ArrivalMs -= rd.base
		if math.IsInf(p.r.ArrivalMs, 0) {
			rd.err = fmt.Errorf("trace: %s: line %d: arrival overflows once rebased to the first arrival",
				rd.Format(), p.line)
			rd.done = true
			return Request{}, false
		}
	}

	// Enforce non-decreasing arrivals at the ingestion boundary: a
	// foreign trace that is unsorted beyond the reorder window would
	// otherwise replay with negative inter-arrivals, corrupting the
	// analyzer's CV^2 and violating the engine's assumption that
	// submissions never precede the clock.
	if rd.emitted > 0 && p.r.ArrivalMs < rd.prev {
		hint := ""
		if rd.opts.ReorderWindow == 0 {
			hint = " (near-sorted input? set ReorderWindow)"
		} else {
			hint = fmt.Sprintf(" (beyond the %d-request reorder window)", rd.opts.ReorderWindow)
		}
		rd.err = fmt.Errorf("trace: %s: line %d: arrival %.6f ms precedes line %d (%.6f ms)%s",
			rd.Format(), p.line, p.r.ArrivalMs, rd.prevLine, rd.prev, hint)
		rd.done = true
		return Request{}, false
	}
	if !rd.rebase && p.r.ArrivalMs < 0 {
		rd.err = fmt.Errorf("trace: %s: line %d: negative arrival %v ms",
			rd.Format(), p.line, p.r.ArrivalMs)
		rd.done = true
		return Request{}, false
	}
	rd.prev = p.r.ArrivalMs
	rd.prevLine = p.line
	rd.emitted++
	return p.r, true
}

// scanOne advances to the next parsed request, skipping blank lines,
// comments and parser-skipped records. ok=false means end of input or
// an error recorded in rd.err.
func (rd *refReader) scanOne() (Request, int, bool) {
	for rd.sc.Scan() {
		rd.lineNo++
		// View the scanned bytes in place instead of copying them into a
		// fresh string: the line only has to live through parse (see
		// lineParser), and skipping the copy makes a record cost no
		// allocation.
		b := rd.sc.Bytes()
		line := strings.TrimSpace(unsafe.String(unsafe.SliceData(b), len(b)))
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, skip, err := rd.p.parse(line)
		if err != nil {
			rd.err = fmt.Errorf("trace: %s: line %d: %v", rd.Format(), rd.lineNo, err)
			return Request{}, 0, false
		}
		if skip {
			continue
		}
		if err := refValidateShape(r); err != nil {
			rd.err = fmt.Errorf("trace: %s: line %d: %v", rd.Format(), rd.lineNo, err)
			return Request{}, 0, false
		}
		return r, rd.lineNo, true
	}
	if err := rd.sc.Err(); err != nil {
		rd.err = fmt.Errorf("trace: %s: line %d: %v", rd.Format(), rd.lineNo, err)
	}
	return Request{}, 0, false
}

// refValidateShape checks every Request field except the arrival sign,
// which the Reader judges after reordering and rebasing. A NaN arrival
// would also slip past the ordering check, since every comparison with
// NaN is false, and an End past MaxInt64 would wrap negative and slip
// past every capacity check downstream.
func refValidateShape(r Request) error {
	switch {
	case math.IsNaN(r.ArrivalMs) || math.IsInf(r.ArrivalMs, 0):
		return fmt.Errorf("non-finite arrival %v", r.ArrivalMs)
	case r.Disk < 0:
		return fmt.Errorf("negative disk %d", r.Disk)
	case r.LBA < 0:
		return fmt.Errorf("negative lba %d", r.LBA)
	case r.Sectors <= 0:
		return fmt.Errorf("non-positive length %d", r.Sectors)
	case r.LBA > math.MaxInt64-int64(r.Sectors):
		return fmt.Errorf("lba %d + length %d overflows int64", r.LBA, r.Sectors)
	}
	return nil
}

// push/pop/down maintain the bounded min-heap on (ArrivalMs, seq).
func (rd *refReader) push(p refPendingReq) {
	rd.win = append(rd.win, p)
	i := len(rd.win) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !rd.win[i].before(&rd.win[parent]) {
			break
		}
		rd.win[i], rd.win[parent] = rd.win[parent], rd.win[i]
		i = parent
	}
}

func (rd *refReader) pop() refPendingReq {
	top := rd.win[0]
	last := len(rd.win) - 1
	rd.win[0] = rd.win[last]
	rd.win[last] = refPendingReq{}
	rd.win = rd.win[:last]
	rd.down()
	return top
}

// down restores the heap order after the root was replaced.
func (rd *refReader) down() {
	n := len(rd.win)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && rd.win[l].before(&rd.win[small]) {
			small = l
		}
		if r < n && rd.win[r].before(&rd.win[small]) {
			small = r
		}
		if small == i {
			break
		}
		rd.win[i], rd.win[small] = rd.win[small], rd.win[i]
		i = small
	}
}

func (a *refPendingReq) before(b *refPendingReq) bool {
	if a.r.ArrivalMs != b.r.ArrivalMs {
		return a.r.ArrivalMs < b.r.ArrivalMs
	}
	return a.seq < b.seq
}

// refSniff determines the trace format of the leading bytes of a file.
func refSniff(head []byte) (Format, error) {
	lines := strings.Split(string(head), "\n")
	if len(head) == sniffBytes && len(lines) > 1 {
		// The head may end mid-line; drop the truncated tail.
		lines = lines[:len(lines)-1]
	}
	sawData := false
	for _, f := range []Format{FormatNative, FormatMSR, FormatSPC, FormatBlkparse} {
		p := refParserFor(f)
	scan:
		for _, line := range lines {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sawData = true
			switch _, skip, err := p.parse(line); {
			case err != nil:
				break scan // not this format
			case skip:
				continue
			default:
				return f, nil
			}
		}
	}
	if !sawData {
		return FormatNative, nil
	}
	return "", fmt.Errorf("trace: unrecognized format (not native, SPC CSV, MSR CSV, or blkparse text)")
}

func refParserFor(f Format) refLineParser {
	switch f {
	case FormatSPC:
		return refSPCParser{}
	case FormatMSR:
		return &refMSRParser{}
	case FormatBlkparse:
		return &refBlkparseParser{}
	default:
		return refNativeParser{}
	}
}
