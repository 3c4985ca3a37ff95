package trace

import (
	"fmt"
	"strings"
)

// parseBlkparse reads the default text output of blktrace's blkparse:
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
func (p *parser) parseBlkparse(line string, r *Request) (skip bool, err error) {
	if line[0] < '0' || line[0] > '9' {
		return true, nil // summary section, not a record
	}
	if skip, ok := p.blkparsePlain(line, r); ok {
		return skip, nil
	}
	c := wsCursor{line}
	dev, _, _ := c.next(), c.next(), c.next()
	t, tsF := c.float()
	_, action, rwbs := c.next(), c.next(), c.next()
	if rwbs == "" {
		return false, fmt.Errorf("want >= 7 whitespace-separated fields (dev cpu seq time pid action rwbs ...), got %d", countWS(line, 7))
	}
	if strings.IndexByte(dev, ',') < 0 {
		return false, fmt.Errorf("bad device %q (want maj,min)", dev)
	}
	if action != "Q" {
		return true, nil // non-queue lifecycle record
	}
	read, data := rwbsData(rwbs)
	if !data {
		return true, nil // discard, or barrier/flush with no data
	}
	sec, sectorF := c.int()
	plus := c.next()
	n, countF := c.int()
	if countF == "" || plus != "+" {
		return false, fmt.Errorf("queue record without \"sector + count\"")
	}
	ts, err := toFloat(t, tsF)
	if err != nil {
		return false, fmt.Errorf("bad timestamp %q (want seconds)", tsF)
	}
	sector, err := toInt64(sec, sectorF)
	if err != nil || sector < 0 {
		return false, fmt.Errorf("bad sector %q", sectorF)
	}
	count, err := toInt(n, countF)
	if err != nil || count < 0 {
		return false, fmt.Errorf("bad sector count %q", countF)
	}
	if count == 0 {
		return true, nil // zero-length op carries no data
	}
	// Seconds -> ms; field by field, as in nativePlain.
	r.ArrivalMs, r.Disk, r.LBA, r.Sectors, r.Read = ts*1000, p.device(dev), sector, count, read
	return false, nil
}

// blkparsePlain reads a record line whose fields are plain, as
// blkparse prints them: a maj,min device, a digits[.digits]
// timestamp short enough for scanFloat to read exactly, and, on a
// queue record of data, sector and count in digits alone around a "+".
// It reads them in one pass and reports ok=false for any other line,
// which parseBlkparse then reads field by field; on the lines it
// accepts, both reads skip the line or give the same request.
func (p *parser) blkparsePlain(s string, r *Request) (skip, ok bool) {
	dev, s := cutWS(s)
	_, s = cutWS(s) // cpu
	_, s = cutWS(s) // sequence number
	ts, i := scanFloat(s)
	if ts < 0 || i == len(s) || !isWS(s[i]) {
		return false, false
	}
	_, s = cutWS(trimLeftWS(s[i:])) // pid
	action, s := cutWS(s)
	rwbs, s := cutWS(s)
	if rwbs == "" || strings.IndexByte(dev, ',') < 0 {
		return false, false
	}
	if action != "Q" {
		return true, true // non-queue lifecycle record
	}
	read, data := rwbsData(rwbs)
	if !data {
		return true, true // discard, or barrier/flush with no data
	}
	sector, i := scanInt(s)
	if sector < 0 || i == len(s) || !isWS(s[i]) {
		return false, false
	}
	s = trimLeftWS(s[i:])
	if len(s) < 2 || s[0] != '+' || !isWS(s[1]) {
		return false, false
	}
	s = trimLeftWS(s[1:])
	count, i := scanIntN(s)
	if count < 0 || (i < len(s) && !isWS(s[i])) {
		return false, false
	}
	if count == 0 {
		return true, true // zero-length op carries no data
	}
	// Seconds -> ms; field by field, as in nativePlain.
	r.ArrivalMs, r.Disk, r.LBA, r.Sectors, r.Read = ts*1000, p.device(dev), sector, count, read
	return false, true
}

// rwbsData reads blkparse's RWBS flags in any order: data is false for
// a discard (D), even one that also reads R or W, and for a barrier or
// flush that reads neither; read is true when R appears.
func rwbsData(rwbs string) (read, data bool) {
	var write, discard bool
	for i := 0; i < len(rwbs); i++ {
		switch rwbs[i] {
		case 'R':
			read = true
		case 'W':
			write = true
		case 'D':
			discard = true
		}
	}
	return read, (read || write) && !discard
}

// device maps a maj,min device to its dense Disk index, assigning the
// next index on first appearance.
func (p *parser) device(dev string) int {
	disk, ok := p.devs[dev]
	if !ok {
		if p.devs == nil {
			p.devs = make(map[string]int)
		}
		disk = len(p.devs)
		p.devs[strings.Clone(dev)] = disk // dev aliases the scan buffer
	}
	return disk
}
