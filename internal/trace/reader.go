package trace

import (
	"bufio"
	"bytes"
	"errors"
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

// parser reads the lines of one format, with the state the format
// keeps across lines: MSR's first tick and blkparse's device map. A
// line reaches parse trimmed, neither blank nor a comment. skip=true
// drops the line without error (headers, summary sections, records
// that are not data I/O); a line that is neither skipped nor in error
// writes every field of r, and no other line writes r at all. Parsers
// validate every field except the arrival sign — near-sorted rebasing
// means an arrival may only be judged after reordering, which the
// Reader does. The line aliases the Reader's scan buffer and is valid
// only during the call: a parser that keeps any part of it must copy it
// (strings.Clone).
type parser struct {
	format Format

	haveFirst bool           // msr: firstTick is set
	firstTick int64          // msr: the first record's tick
	devs      map[string]int // blkparse: maj,min -> Disk, by first appearance
}

func (p *parser) parse(line string, r *Request) (skip bool, err error) {
	switch p.format {
	case FormatSPC:
		return parseSPC(line, r)
	case FormatMSR:
		return p.parseMSR(line, r)
	case FormatBlkparse:
		return p.parseBlkparse(line, r)
	default:
		return parseNative(line, r)
	}
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
	p      parser
	opts   ReaderOpts

	lineNo  int
	err     error
	done    bool
	scanned bool // input exhausted

	rebase bool // foreign formats rebase arrivals to first = 0
	based  bool
	base   float64

	emitted  bool    // prev and prevLine hold the last emitted record
	prev     float64 // last emitted arrival, for ordering enforcement
	prevLine int

	// rec is the record the parser writes each line into.
	rec Request

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

// newReader assembles a Reader over r for format f. Foreign formats
// (everything but native) rebase arrivals to start at zero.
func newReader(r io.Reader, f Format, opts ReaderOpts) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if opts.ReorderWindow < 0 {
		opts.ReorderWindow = 0
	}
	return &Reader{
		sc:     sc,
		p:      parser{format: f},
		opts:   opts,
		rebase: f != FormatNative,
	}
}

// NewNativeReader streams the repository's text trace format.
func NewNativeReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, FormatNative, opts)
}

// NewSPCReader streams an SPC-1-style CSV trace.
func NewSPCReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, FormatSPC, opts)
}

// NewMSRReader streams an MSR-Cambridge / SNIA CSV block trace.
func NewMSRReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, FormatMSR, opts)
}

// NewBlkparseReader streams blkparse default text output.
func NewBlkparseReader(r io.Reader, opts ReaderOpts) *Reader {
	return newReader(r, FormatBlkparse, opts)
}

// Format reports the format this reader parses.
func (rd *Reader) Format() Format { return rd.p.format }

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
//
// Each scanned line is parsed straight into rd.rec. The reorder window
// is a min-heap of up to W requests. Once it is full, each parsed
// record is pushed and the least request popped in one sift (a
// push-pop), so any record that is out of order by at most W positions
// is restored to arrival order. With W = 0 the heap stays empty and a
// record goes from parse to emit without passing through it.
func (rd *Reader) Next() (Request, bool) {
	for !rd.done {
		if rd.scanned {
			if len(rd.win) == 0 {
				rd.done = true
				break
			}
			p := rd.pop()
			if !rd.emit(&p.r, p.line) {
				break
			}
			return p.r, true
		}
		if !rd.sc.Scan() {
			if err := rd.sc.Err(); err != nil {
				rd.fail(rd.lineNo, err)
				break
			}
			rd.scanned = true
			continue
		}
		rd.lineNo++
		// View the scanned bytes in place instead of copying them into a
		// fresh string: the line only has to live through parse (see
		// parser), and skipping the copy makes a record cost no
		// allocation.
		b := rd.sc.Bytes()
		line := trimField(unsafe.String(unsafe.SliceData(b), len(b)))
		if line == "" || line[0] == '#' {
			continue
		}
		skip, err := rd.p.parse(line, &rd.rec)
		if err == nil && !skip {
			err = validateShape(&rd.rec)
		}
		if err != nil {
			rd.fail(rd.lineNo, err)
			break
		}
		if skip {
			continue
		}
		p := pendingReq{r: rd.rec, line: rd.lineNo, seq: rd.seq}
		rd.seq++
		if len(rd.win) < rd.opts.ReorderWindow {
			rd.push(p)
			continue
		}
		if len(rd.win) > 0 && rd.win[0].before(&p) {
			p, rd.win[0] = rd.win[0], p
			rd.down()
		}
		if !rd.emit(&p.r, p.line) {
			break
		}
		return p.r, true
	}
	return Request{}, false
}

// fail ends the stream with err, read at the given line.
func (rd *Reader) fail(line int, err error) {
	rd.err = fmt.Errorf("trace: %s: line %d: %v", rd.Format(), line, err)
	rd.done = true
}

// emit rebases r, read at the given line, and checks its arrival
// against the last emitted one. It reports false, with the stream
// ended, when r may not be emitted.
func (rd *Reader) emit(r *Request, line int) bool {
	// Rebase before the ordering check so both sides of the comparison
	// live in the same (rebased) time domain; the base is the first
	// *emitted* arrival, so reordering composes with rebasing.
	if rd.rebase {
		if !rd.based {
			rd.based = true
			rd.base = r.ArrivalMs
		}
		r.ArrivalMs -= rd.base
		if math.IsInf(r.ArrivalMs, 0) {
			rd.fail(line, errors.New("arrival overflows once rebased to the first arrival"))
			return false
		}
	}

	// Enforce non-decreasing arrivals at the ingestion boundary: a
	// foreign trace that is unsorted beyond the reorder window would
	// otherwise replay with negative inter-arrivals, corrupting the
	// analyzer's CV^2 and violating the engine's assumption that
	// submissions never precede the clock.
	if rd.emitted && r.ArrivalMs < rd.prev {
		hint := ""
		if rd.opts.ReorderWindow == 0 {
			hint = " (near-sorted input? set ReorderWindow)"
		} else {
			hint = fmt.Sprintf(" (beyond the %d-request reorder window)", rd.opts.ReorderWindow)
		}
		rd.fail(line, fmt.Errorf("arrival %.6f ms precedes line %d (%.6f ms)%s",
			r.ArrivalMs, rd.prevLine, rd.prev, hint))
		return false
	}
	if !rd.rebase && r.ArrivalMs < 0 {
		rd.fail(line, fmt.Errorf("negative arrival %v ms", r.ArrivalMs))
		return false
	}
	rd.prev = r.ArrivalMs
	rd.prevLine = line
	rd.emitted = true
	return true
}

// validateShape checks every Request field except the arrival sign,
// which the Reader judges after reordering and rebasing. A NaN arrival
// would also slip past the ordering check, since every comparison with
// NaN is false, and an End past MaxInt64 would wrap negative and slip
// past every capacity check downstream.
func validateShape(r *Request) error {
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
	return newReader(br, f, opts), nil
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

// Sniff determines the trace format of the leading bytes of a file. It
// reads the lines of head in place, each trimmed as the Reader trims
// it, and allocates nothing for them.
func Sniff(head []byte) (Format, error) {
	if len(head) == sniffBytes {
		// The head may end mid-line; drop the truncated tail.
		if i := bytes.LastIndexByte(head, '\n'); i >= 0 {
			head = head[:i]
		}
	}
	text := unsafe.String(unsafe.SliceData(head), len(head))
	sawData := false
	var r Request
	for _, f := range []Format{FormatNative, FormatMSR, FormatSPC, FormatBlkparse} {
		p := parser{format: f}
		for rest, more := text, true; more; {
			var line string
			line, rest, more = strings.Cut(rest, "\n")
			line = trimField(line)
			if line == "" || line[0] == '#' {
				continue
			}
			sawData = true
			skip, err := p.parse(line, &r)
			if err != nil {
				break // not this format
			}
			if !skip {
				return f, nil
			}
		}
	}
	if !sawData {
		return FormatNative, nil
	}
	return "", fmt.Errorf("trace: unrecognized format (not native, SPC CSV, MSR CSV, or blkparse text)")
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
