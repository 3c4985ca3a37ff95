package trace

import (
	"fmt"
	"strings"
)

// parseMSR reads the MSR-Cambridge block traces published through the
// SNIA IOTTA repository:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows 100-ns ticks since 1601 (~1.3e17 for the 2007
// captures); Offset and Size are in bytes; Type is Read or Write. The
// tick origin is subtracted in integer arithmetic before converting to
// float64 milliseconds, because the raw tick values are too large for
// float64 to keep sub-millisecond precision.
func (p *parser) parseMSR(line string, r *Request) (skip bool, err error) {
	ticks, disk, read, off, size, ok := msrPlain(line)
	if !ok {
		ticks, disk, read, off, size, skip, err = msrFields(line)
		if skip || err != nil {
			return skip, err
		}
	}
	if !p.haveFirst {
		p.haveFirst = true
		p.firstTick = ticks
	}
	// 1e4 ticks of 100 ns each per millisecond. Both ticks are >= 0, so
	// the difference cannot wrap. The Reader still rebases to the first
	// *emitted* arrival, which differs from the first *parsed* one only
	// inside a reorder window. Field by field, as in nativePlain.
	lba := off / 512
	end := (off + size + 511) / 512
	r.ArrivalMs, r.Disk, r.LBA, r.Sectors, r.Read = float64(ticks-p.firstTick)/1e4, disk, lba, int(end-lba), read
	return false, nil
}

// msrPlain reads the fields of a line whose first six are plain, as on
// every data line of the fixture in testdata: timestamp, disk number,
// offset and size in digits alone (size > 0), each short enough for
// scanInt to read exactly, a host name without commas, and Read or Write in any
// ASCII case. It reads them in one pass and reports false for any
// other line, which msrFields then reads field by field; on the lines
// it accepts, both reads give the same fields.
func msrPlain(s string) (ticks int64, disk int, read bool, off, size int64, ok bool) {
	ticks, i := scanInt(s)
	if ticks < 0 || i == len(s) || s[i] != ',' {
		return
	}
	s = s[i+1:]
	if i = strings.IndexByte(s, ','); i < 0 { // host name
		return
	}
	s = s[i+1:]
	disk, i = scanIntN(s)
	if disk < 0 || i == len(s) || s[i] != ',' {
		return
	}
	s = s[i+1:]
	switch {
	case len(s) > 4 && s[4] == ',' && foldsTo(s[:4], "read"):
		read, s = true, s[5:]
	case len(s) > 5 && s[5] == ',' && foldsTo(s[:5], "write"):
		s = s[6:]
	default:
		return
	}
	off, i = scanInt(s)
	if off < 0 || i == len(s) || s[i] != ',' {
		return
	}
	s = s[i+1:]
	size, i = scanInt(s)
	if size <= 0 || (i < len(s) && s[i] != ',') {
		return
	}
	return ticks, disk, read, off, size, true
}

// msrFields reads the fields of any line, one cursor step at a time,
// and reports the first problem in field order.
func msrFields(line string) (ticks int64, disk int, read bool, off, size int64, skip bool, err error) {
	c := csvCursor{s: line}
	t, f0 := c.int()
	c.next() // hostname
	d, f2 := c.int()
	typ := c.next()
	o, f4 := c.int()
	if c.done {
		err = fmt.Errorf("want 7 comma-separated fields (timestamp,host,disk,type,offset,size,response), got %d", countCSV(line, 6))
		return
	}
	n, f5 := c.int()
	if strings.EqualFold(f0, "timestamp") {
		skip = true // header row
		return
	}
	if ticks, err = toInt64(t, f0); err != nil {
		err = fmt.Errorf("bad timestamp %q (want 100-ns ticks)", f0)
		return
	}
	if ticks < 0 {
		err = fmt.Errorf("negative timestamp %d (want 100-ns ticks >= 0)", ticks)
		return
	}
	if disk, err = toInt(d, f2); err != nil {
		err = fmt.Errorf("bad disk number %q", f2)
		return
	}
	switch {
	case strings.EqualFold(typ, "read"):
		read = true
	case strings.EqualFold(typ, "write"):
		read = false
	default:
		err = fmt.Errorf("bad type %q (want Read or Write)", typ)
		return
	}
	if off, err = toInt64(o, f4); err != nil || off < 0 {
		err = fmt.Errorf("bad offset %q (want bytes >= 0)", f4)
		return
	}
	if size, err = toInt64(n, f5); err != nil || size <= 0 {
		err = fmt.Errorf("bad size %q (want bytes > 0)", f5)
		return
	}
	return
}
