package trace

import (
	"fmt"
	"strings"
)

// spcParser reads SPC-1-style CSV, the format of the UMass Trace
// Repository's Financial and WebSearch traces:
//
//	ASU,LBA,Size,Opcode,Timestamp[,extras...]
//
// ASU is the application storage unit (mapped to Request.Disk), LBA is
// already in 512-byte sectors, Size is in bytes, Opcode is r/R or w/W,
// and Timestamp is in seconds from an arbitrary origin (the Reader
// rebases it to zero). Extra trailing columns are ignored.
type spcParser struct{}

func (spcParser) format() Format { return FormatSPC }

func (spcParser) parse(line string) (Request, bool, error) {
	c := csvCursor{s: line}
	a, f0 := c.int()
	l, f1 := c.int()
	n, f2 := c.int()
	op := c.next()
	if c.done {
		return Request{}, false, fmt.Errorf("want 5 comma-separated fields (ASU,LBA,size,opcode,timestamp), got %d", countCSV(line, 5))
	}
	t, f4 := c.float()
	if strings.EqualFold(f0, "asu") {
		return Request{}, true, nil // header row
	}
	asu, err := toInt(a, f0)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad ASU %q", f0)
	}
	lba, err := toInt64(l, f1)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad LBA %q", f1)
	}
	size, err := toInt64(n, f2)
	if err != nil || size <= 0 {
		return Request{}, false, fmt.Errorf("bad size %q (want bytes > 0)", f2)
	}
	var read bool
	switch op {
	case "r", "R":
		read = true
	case "w", "W":
		read = false
	default:
		return Request{}, false, fmt.Errorf("bad opcode %q (want r or w)", op)
	}
	ts, err := toFloat(t, f4)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad timestamp %q", f4)
	}
	return Request{
		ArrivalMs: ts * 1000, // seconds -> ms
		Disk:      asu,
		LBA:       lba,
		Sectors:   int((size + 511) / 512),
		Read:      read,
	}, false, nil
}
