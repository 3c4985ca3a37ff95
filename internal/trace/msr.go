package trace

import (
	"fmt"
	"strings"
)

// msrParser reads the MSR-Cambridge block traces published through the
// SNIA IOTTA repository:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows 100-ns ticks since 1601 (~1.3e17 for the 2007
// captures); Offset and Size are in bytes; Type is Read or Write. The
// tick origin is subtracted in integer arithmetic before converting to
// float64 milliseconds, because the raw tick values are too large for
// float64 to keep sub-millisecond precision.
type msrParser struct {
	haveFirst bool
	firstTick int64
}

func (*msrParser) format() Format { return FormatMSR }

func (p *msrParser) parse(line string) (Request, bool, error) {
	c := csvCursor{s: line}
	t, f0 := c.int()
	c.next() // hostname
	d, f2 := c.int()
	typ := c.next()
	o, f4 := c.int()
	if c.done {
		return Request{}, false, fmt.Errorf("want 7 comma-separated fields (timestamp,host,disk,type,offset,size,response), got %d", countCSV(line, 6))
	}
	n, f5 := c.int()
	if strings.EqualFold(f0, "timestamp") {
		return Request{}, true, nil // header row
	}
	ticks, err := toInt64(t, f0)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad timestamp %q (want 100-ns ticks)", f0)
	}
	if ticks < 0 {
		return Request{}, false, fmt.Errorf("negative timestamp %d (want 100-ns ticks >= 0)", ticks)
	}
	disk, err := toInt(d, f2)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad disk number %q", f2)
	}
	var read bool
	switch {
	case strings.EqualFold(typ, "read"):
		read = true
	case strings.EqualFold(typ, "write"):
		read = false
	default:
		return Request{}, false, fmt.Errorf("bad type %q (want Read or Write)", typ)
	}
	off, err := toInt64(o, f4)
	if err != nil || off < 0 {
		return Request{}, false, fmt.Errorf("bad offset %q (want bytes >= 0)", f4)
	}
	size, err := toInt64(n, f5)
	if err != nil || size <= 0 {
		return Request{}, false, fmt.Errorf("bad size %q (want bytes > 0)", f5)
	}
	if !p.haveFirst {
		p.haveFirst = true
		p.firstTick = ticks
	}
	// 1e4 ticks of 100 ns each per millisecond. Both ticks are >= 0, so
	// the difference cannot wrap. The Reader still rebases to the first
	// *emitted* arrival, which differs from the first *parsed* one only
	// inside a reorder window.
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
