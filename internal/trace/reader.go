package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unsafe"
)

// Format identifies an on-disk trace format understood by the ingestion
// front door (Open / OpenFile).
type Format string

const (
	// FormatNative is the repository's text format:
	// "<arrival-ms> <disk> <lba> <sectors> <R|W>".
	FormatNative Format = "native"
	// FormatSPC is the SPC-1-style CSV the UMass trace repository
	// distributes: "ASU,LBA,size,opcode,timestamp" with the LBA in
	// 512-byte sectors, the size in bytes and the timestamp in seconds.
	FormatSPC Format = "spc"
	// FormatMSR is the MSR-Cambridge / SNIA IOTTA block-trace CSV:
	// "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
	// with the timestamp in Windows 100-ns ticks and offset/size in
	// bytes.
	FormatMSR Format = "msr"
	// FormatBlkparse is the default text output of blktrace's blkparse:
	// "maj,min cpu seq time pid action rwbs sector + count [process]".
	// Only queue (Q) records of read/write data ops become requests.
	FormatBlkparse Format = "blkparse"
)

// ReaderOpts tunes behavior shared by every format reader.
type ReaderOpts struct {
	// ReorderWindow accepts near-sorted inputs: up to this many parsed
	// requests are buffered in a min-heap and re-emitted in arrival
	// order, so a trace whose timestamps were recorded slightly out of
	// order (common in multi-CPU blktrace captures) still ingests. A
	// request that is out of order by more than the window is an error.
	// 0 (the default) demands non-decreasing arrivals line by line.
	ReorderWindow int
}

// lineParser parses one trimmed, non-blank, non-comment line of a
// specific format. skip=true drops the line without error (headers,
// summary sections, records that are not data I/O). Parsers validate
// every field except the arrival sign — near-sorted rebasing means an
// arrival may only be judged after reordering, which the Reader does.
// The line aliases the Reader's scan buffer and is valid only during the
// call: a parser that keeps any part of it must copy it (strings.Clone).
type lineParser interface {
	format() Format
	parse(line string) (r Request, skip bool, err error)
}

// Reader is a streaming trace ingester: an io.Reader-backed Stream that
// scans one line at a time, normalizes units to the simulator's
// (sectors, milliseconds), rebases foreign timestamps so the first
// arrival is 0, and enforces arrival ordering — all in O(1) memory, so
// a multi-gigabyte trace replays without ever being materialized.
//
// Reader implements Stream; a parse, validation or ordering problem
// ends the stream and is reported by Err with the offending line
// number. Always check Err after Next returns false.
type Reader struct {
	sc     *bufio.Scanner
	closer io.Closer
	p      lineParser
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
	win []pendingReq
	seq int
}

type pendingReq struct {
	r    Request
	line int
	seq  int
}

// newReader assembles a Reader over r for the given parser. Foreign
// formats (everything but native) rebase arrivals to start at zero.
func newReader(r io.Reader, p lineParser, opts ReaderOpts) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if opts.ReorderWindow < 0 {
		opts.ReorderWindow = 0
	}
	return &Reader{
		sc:     sc,
		p:      p,
		opts:   opts,
		rebase: p.format() != FormatNative,
	}
}

// NewNativeReader streams the repository's text trace format.
func NewNativeReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, nativeParser{}, opts)
}

// NewSPCReader streams an SPC-1-style CSV trace.
func NewSPCReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, spcParser{}, opts)
}

// NewMSRReader streams an MSR-Cambridge / SNIA CSV block trace.
func NewMSRReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, &msrParser{}, opts)
}

// NewBlkparseReader streams blkparse default text output.
func NewBlkparseReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, &blkparseParser{}, opts)
}

// Format reports the format this reader parses.
func (rd *Reader) Format() Format { return rd.p.format() }

// Err reports the terminal error of the stream, if any. It is non-nil
// only after Next has returned false because of a malformed line, an
// ordering violation, or an underlying read error.
func (rd *Reader) Err() error { return rd.err }

// Close releases the underlying file when the reader came from
// OpenFile; it is a no-op otherwise.
func (rd *Reader) Close() error {
	if rd.closer == nil {
		return nil
	}
	c := rd.closer
	rd.closer = nil
	return c.Close()
}

// Next yields the stream's following request in arrival order; ok is
// false when the stream is exhausted or failed (see Err).
func (rd *Reader) Next() (Request, bool) {
	if rd.done {
		return Request{}, false
	}
	// The reorder window is a min-heap of up to W requests. Once it is
	// full, each scanned record is pushed and the least request popped
	// in one sift (a push-pop), so any record that is out of order by at
	// most W positions is restored to arrival order. With W = 0 the heap
	// stays empty and a record goes from parse to emit without passing
	// through it.
	var p pendingReq
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
		p = pendingReq{r: r, line: line, seq: rd.seq}
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
func (rd *Reader) scanOne() (Request, int, bool) {
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
		if err := validateShape(r); err != nil {
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

// validateShape checks every Request field except the arrival sign,
// which the Reader judges after reordering and rebasing. A NaN arrival
// would also slip past the ordering check, since every comparison with
// NaN is false, and an End past MaxInt64 would wrap negative and slip
// past every capacity check downstream.
func validateShape(r Request) error {
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
func (rd *Reader) push(p pendingReq) {
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

func (rd *Reader) pop() pendingReq {
	top := rd.win[0]
	last := len(rd.win) - 1
	rd.win[0] = rd.win[last]
	rd.win[last] = pendingReq{}
	rd.win = rd.win[:last]
	rd.down()
	return top
}

// down restores the heap order after the root was replaced.
func (rd *Reader) down() {
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

func (a *pendingReq) before(b *pendingReq) bool {
	if a.r.ArrivalMs != b.r.ArrivalMs {
		return a.r.ArrivalMs < b.r.ArrivalMs
	}
	return a.seq < b.seq
}

// Open sniffs the format of the trace on r and returns a streaming
// Reader for it. The sniffer inspects the first block of input: the
// earliest candidate format whose parser accepts a data line wins
// (native, then MSR, then SPC, then blkparse — the grammars are
// mutually exclusive on well-formed lines, so the order only breaks
// ties on degenerate input). Input with no data lines at all is
// treated as an empty native trace.
func Open(r io.Reader, opts ReaderOpts) (*Reader, error) {
	br := bufio.NewReaderSize(r, sniffBytes)
	head, err := br.Peek(sniffBytes)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return nil, fmt.Errorf("trace: sniff: %v", err)
	}
	f, err := Sniff(head)
	if err != nil {
		return nil, err
	}
	return newReader(br, parserFor(f), opts), nil
}

// OpenFile opens path and sniffs its format; the caller owns Close.
func OpenFile(path string, opts ReaderOpts) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rd, err := Open(f, opts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	rd.closer = f
	return rd, nil
}

const sniffBytes = 64 * 1024

// Sniff determines the trace format of the leading bytes of a file.
func Sniff(head []byte) (Format, error) {
	lines := strings.Split(string(head), "\n")
	if len(head) == sniffBytes && len(lines) > 1 {
		// The head may end mid-line; drop the truncated tail.
		lines = lines[:len(lines)-1]
	}
	sawData := false
	for _, f := range []Format{FormatNative, FormatMSR, FormatSPC, FormatBlkparse} {
		p := parserFor(f)
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

func parserFor(f Format) lineParser {
	switch f {
	case FormatSPC:
		return spcParser{}
	case FormatMSR:
		return &msrParser{}
	case FormatBlkparse:
		return &blkparseParser{}
	default:
		return nativeParser{}
	}
}

// WriteStream drains s into the text trace format, reporting how many
// requests were written. Ingestion errors on s (see Err) abort the
// write and are returned. Each line is the bytes of
// fmt.Sprintf("%.6f %d %d %d %s\n", ...), built with strconv.
func WriteStream(w io.Writer, s Stream) (int, error) {
	bw := bufio.NewWriter(w)
	var buf []byte
	n := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		buf = appendLine(buf[:0], r)
		if _, err := bw.Write(buf); err != nil {
			return n, err
		}
		n++
	}
	if err := Err(s); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// appendLine appends r's line in the text trace format to buf.
func appendLine(buf []byte, r Request) []byte {
	buf = strconv.AppendFloat(buf, r.ArrivalMs, 'f', 6, 64)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Disk), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, r.LBA, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Sectors), 10)
	if r.Read {
		return append(buf, " R\n"...)
	}
	return append(buf, " W\n"...)
}
