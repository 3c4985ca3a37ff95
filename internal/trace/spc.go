package trace

import (
	"fmt"
	"strings"
)

// parseSPC reads SPC-1-style CSV, the format of the UMass Trace
// Repository's Financial and WebSearch traces:
//
//	ASU,LBA,Size,Opcode,Timestamp[,extras...]
//
// ASU is the application storage unit (mapped to Request.Disk), LBA is
// already in 512-byte sectors, Size is in bytes, Opcode is r/R or w/W,
// and Timestamp is in seconds from an arbitrary origin (the Reader
// rebases it to zero). Extra trailing columns are ignored.
func parseSPC(line string, r *Request) (skip bool, err error) {
	if spcPlain(line, r) {
		return false, nil
	}
	c := csvCursor{s: line}
	a, f0 := c.int()
	l, f1 := c.int()
	n, f2 := c.int()
	op := c.next()
	if c.done {
		return false, fmt.Errorf("want 5 comma-separated fields (ASU,LBA,size,opcode,timestamp), got %d", countCSV(line, 5))
	}
	t, f4 := c.float()
	if strings.EqualFold(f0, "asu") {
		return true, nil // header row
	}
	asu, err := toInt(a, f0)
	if err != nil {
		return false, fmt.Errorf("bad ASU %q", f0)
	}
	lba, err := toInt64(l, f1)
	if err != nil {
		return false, fmt.Errorf("bad LBA %q", f1)
	}
	size, err := toInt64(n, f2)
	if err != nil || size <= 0 {
		return false, fmt.Errorf("bad size %q (want bytes > 0)", f2)
	}
	var read bool
	switch op {
	case "r", "R":
		read = true
	case "w", "W":
		read = false
	default:
		return false, fmt.Errorf("bad opcode %q (want r or w)", op)
	}
	ts, err := toFloat(t, f4)
	if err != nil {
		return false, fmt.Errorf("bad timestamp %q", f4)
	}
	*r = Request{
		ArrivalMs: ts * 1000, // seconds -> ms
		Disk:      asu,
		LBA:       lba,
		Sectors:   int((size + 511) / 512),
		Read:      read,
	}
	return false, nil
}

// spcPlain reads a line whose five fields are plain, as on every data
// line of the fixture in testdata: ASU, LBA and size in digits alone
// (size > 0), a one-letter opcode, and a digits[.digits] timestamp,
// each short enough for scanInt or scanFloat to read exactly, with
// nothing but further columns after. It reads them in one pass and reports false
// for any other line, which parseSPC then reads field by field; on the
// lines it accepts, both reads give the same request.
func spcPlain(s string, r *Request) bool {
	asu, i := scanIntN(s)
	if asu < 0 || i == len(s) || s[i] != ',' {
		return false
	}
	s = s[i+1:]
	lba, i := scanInt(s)
	if lba < 0 || i == len(s) || s[i] != ',' {
		return false
	}
	s = s[i+1:]
	size, i := scanInt(s)
	if size <= 0 || i+2 >= len(s) || s[i] != ',' || s[i+2] != ',' {
		return false
	}
	var read bool
	switch s[i+1] {
	case 'r', 'R':
		read = true
	case 'w', 'W':
	default:
		return false
	}
	s = s[i+3:]
	ts, i := scanFloat(s)
	if ts < 0 || (i < len(s) && s[i] != ',') {
		return false
	}
	// Seconds -> ms; field by field, as in nativePlain.
	r.ArrivalMs, r.Disk, r.LBA, r.Sectors, r.Read = ts*1000, asu, lba, int((size+511)/512), read
	return true
}
