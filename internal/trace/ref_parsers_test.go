package trace

// The four line parsers and field splitters as they stood before the
// digit fast paths and field cursors, kept verbatim (renamed with a ref
// prefix) as the reference FuzzParseMatchesReference checks the
// production parsers against. The one deliberate change is
// refMSRParser's rejection of negative ticks, which the production
// parser makes too: with ticks >= 0, subtracting the first tick cannot
// wrap.

import (
	"fmt"
	"strconv"
	"strings"
)

// refNativeParser reads the repository's own text format, one request per
// line: "<arrival-ms> <disk> <lba> <sectors> <R|W>". Unlike the foreign
// formats, native arrivals are absolute simulation times and are never
// rebased.
type refNativeParser struct{}

func (refNativeParser) format() Format { return FormatNative }

func (refNativeParser) parse(line string) (Request, bool, error) {
	var f [6]string
	n := refSplitWS(line, f[:])
	if n != 5 {
		return Request{}, false, fmt.Errorf("want 5 fields, got %d", n)
	}
	arrival, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad arrival: %v", err)
	}
	disk, err := strconv.Atoi(f[1])
	if err != nil {
		return Request{}, false, fmt.Errorf("bad disk: %v", err)
	}
	lba, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad lba: %v", err)
	}
	sectors, err := strconv.Atoi(f[3])
	if err != nil {
		return Request{}, false, fmt.Errorf("bad sectors: %v", err)
	}
	var read bool
	switch f[4] {
	case "R", "r":
		read = true
	case "W", "w":
		read = false
	default:
		return Request{}, false, fmt.Errorf("bad op %q", f[4])
	}
	return Request{ArrivalMs: arrival, Disk: disk, LBA: lba, Sectors: sectors, Read: read}, false, nil
}

// refSPCParser reads SPC-1-style CSV, the format of the UMass Trace
// Repository's Financial and WebSearch traces:
//
//	ASU,LBA,Size,Opcode,Timestamp[,extras...]
//
// ASU is the application storage unit (mapped to Request.Disk), LBA is
// already in 512-byte sectors, Size is in bytes, Opcode is r/R or w/W,
// and Timestamp is in seconds from an arbitrary origin (the Reader
// rebases it to zero). Extra trailing columns are ignored.
type refSPCParser struct{}

func (refSPCParser) format() Format { return FormatSPC }

func (refSPCParser) parse(line string) (Request, bool, error) {
	var f [5]string
	n := refSplitDelim(line, ',', f[:])
	if n < 5 {
		return Request{}, false, fmt.Errorf("want 5 comma-separated fields (ASU,LBA,size,opcode,timestamp), got %d", n)
	}
	if strings.EqualFold(f[0], "asu") {
		return Request{}, true, nil // header row
	}
	asu, err := strconv.Atoi(f[0])
	if err != nil {
		return Request{}, false, fmt.Errorf("bad ASU %q", f[0])
	}
	lba, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad LBA %q", f[1])
	}
	size, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil || size <= 0 {
		return Request{}, false, fmt.Errorf("bad size %q (want bytes > 0)", f[2])
	}
	var read bool
	switch f[3] {
	case "r", "R":
		read = true
	case "w", "W":
		read = false
	default:
		return Request{}, false, fmt.Errorf("bad opcode %q (want r or w)", f[3])
	}
	ts, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad timestamp %q", f[4])
	}
	return Request{
		ArrivalMs: ts * 1000, // seconds -> ms
		Disk:      asu,
		LBA:       lba,
		Sectors:   int((size + 511) / 512),
		Read:      read,
	}, false, nil
}

// refMSRParser reads the MSR-Cambridge block traces published through the
// SNIA IOTTA repository:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows 100-ns ticks since 1601 (~1.3e17 for the 2007
// captures); Offset and Size are in bytes; Type is Read or Write. The
// tick origin is subtracted in integer arithmetic before converting to
// float64 milliseconds, because the raw tick values are too large for
// float64 to keep sub-millisecond precision.
type refMSRParser struct {
	haveFirst bool
	firstTick int64
}

func (*refMSRParser) format() Format { return FormatMSR }

func (p *refMSRParser) parse(line string) (Request, bool, error) {
	var f [6]string
	n := refSplitDelim(line, ',', f[:])
	if n < 6 {
		return Request{}, false, fmt.Errorf("want 7 comma-separated fields (timestamp,host,disk,type,offset,size,response), got %d", n)
	}
	if strings.EqualFold(f[0], "timestamp") {
		return Request{}, true, nil // header row
	}
	ticks, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad timestamp %q (want 100-ns ticks)", f[0])
	}
	if ticks < 0 {
		return Request{}, false, fmt.Errorf("negative timestamp %d (want 100-ns ticks >= 0)", ticks)
	}
	disk, err := strconv.Atoi(f[2])
	if err != nil {
		return Request{}, false, fmt.Errorf("bad disk number %q", f[2])
	}
	var read bool
	switch {
	case strings.EqualFold(f[3], "read"):
		read = true
	case strings.EqualFold(f[3], "write"):
		read = false
	default:
		return Request{}, false, fmt.Errorf("bad type %q (want Read or Write)", f[3])
	}
	off, err := strconv.ParseInt(f[4], 10, 64)
	if err != nil || off < 0 {
		return Request{}, false, fmt.Errorf("bad offset %q (want bytes >= 0)", f[4])
	}
	size, err := strconv.ParseInt(f[5], 10, 64)
	if err != nil || size <= 0 {
		return Request{}, false, fmt.Errorf("bad size %q (want bytes > 0)", f[5])
	}
	if !p.haveFirst {
		p.haveFirst = true
		p.firstTick = ticks
	}
	// 1e4 ticks of 100 ns each per millisecond. The Reader still
	// rebases to the first *emitted* arrival, which differs from the
	// first *parsed* one only inside a reorder window.
	arrival := float64(ticks-p.firstTick) / 1e4
	lba := off / 512
	end := (off + size + 511) / 512
	return Request{
		ArrivalMs: arrival,
		Disk:      disk,
		LBA:       lba,
		Sectors:   int(end - lba),
		Read:      read,
	}, false, nil
}

// refBlkparseParser reads the default text output of blktrace's blkparse:
//
//	maj,min cpu seq timestamp pid action rwbs sector + count [process]
//
// Only queue records (action Q) of data reads/writes become requests —
// other actions (G, P, I, D, C, ...) describe the same I/O at later
// lifecycle stages and would double-count it. The timestamp is in
// seconds; sector and count are already in 512-byte sectors. Each
// distinct maj,min device is assigned a dense Disk index in order of
// first appearance. Lines that do not start with a digit (blkparse's
// trailing per-CPU summary) are skipped.
type refBlkparseParser struct {
	devs map[string]int
}

func (*refBlkparseParser) format() Format { return FormatBlkparse }

func (p *refBlkparseParser) parse(line string) (Request, bool, error) {
	if line[0] < '0' || line[0] > '9' {
		return Request{}, true, nil // summary section, not a record
	}
	var f [10]string
	n := refSplitWS(line, f[:])
	if n < 7 {
		return Request{}, false, fmt.Errorf("want >= 7 whitespace-separated fields (dev cpu seq time pid action rwbs ...), got %d", n)
	}
	if !strings.Contains(f[0], ",") {
		return Request{}, false, fmt.Errorf("bad device %q (want maj,min)", f[0])
	}
	if f[5] != "Q" {
		return Request{}, true, nil // non-queue lifecycle record
	}
	rwbs := f[6]
	if strings.ContainsRune(rwbs, 'D') {
		return Request{}, true, nil // discard, not a data transfer
	}
	var read bool
	switch {
	case strings.ContainsRune(rwbs, 'R'):
		read = true
	case strings.ContainsRune(rwbs, 'W'):
		read = false
	default:
		return Request{}, true, nil // barrier/flush with no data
	}
	if n < 10 || f[8] != "+" {
		return Request{}, false, fmt.Errorf("queue record without \"sector + count\"")
	}
	ts, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad timestamp %q (want seconds)", f[3])
	}
	sector, err := strconv.ParseInt(f[7], 10, 64)
	if err != nil || sector < 0 {
		return Request{}, false, fmt.Errorf("bad sector %q", f[7])
	}
	count, err := strconv.Atoi(f[9])
	if err != nil || count < 0 {
		return Request{}, false, fmt.Errorf("bad sector count %q", f[9])
	}
	if count == 0 {
		return Request{}, true, nil // zero-length op carries no data
	}
	if p.devs == nil {
		p.devs = make(map[string]int)
	}
	disk, ok := p.devs[f[0]]
	if !ok {
		disk = len(p.devs)
		p.devs[strings.Clone(f[0])] = disk // f[0] aliases the scan buffer
	}
	return Request{
		ArrivalMs: ts * 1000, // seconds -> ms
		Disk:      disk,
		LBA:       sector,
		Sectors:   count,
		Read:      read,
	}, false, nil
}

// splitDelim splits line on delim into dst without allocating, trimming
// surrounding spaces from each field. It reports the number of fields;
// fields beyond len(dst) are dropped (callers ignore trailing extras).
func refSplitDelim(line string, delim byte, dst []string) int {
	n := 0
	for n < len(dst) {
		i := strings.IndexByte(line, delim)
		if i < 0 {
			dst[n] = strings.TrimSpace(line)
			return n + 1
		}
		dst[n] = strings.TrimSpace(line[:i])
		line = line[i+1:]
		n++
	}
	return n
}

// splitWS splits line on runs of spaces and tabs into dst without
// allocating. It reports the number of fields; fields beyond len(dst)
// are dropped.
func refSplitWS(line string, dst []string) int {
	n := 0
	for n < len(dst) {
		for len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			line = line[1:]
		}
		if len(line) == 0 {
			return n
		}
		i := 0
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		dst[n] = line[:i]
		line = line[i:]
		n++
	}
	return n
}
