package trace

import (
	"fmt"
	"strings"
)

// blkparseParser reads the default text output of blktrace's blkparse:
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
type blkparseParser struct {
	devs map[string]int
}

func (*blkparseParser) format() Format { return FormatBlkparse }

func (p *blkparseParser) parse(line string) (Request, bool, error) {
	if line[0] < '0' || line[0] > '9' {
		return Request{}, true, nil // summary section, not a record
	}
	c := wsCursor{line}
	dev, _, _ := c.next(), c.next(), c.next()
	t, tsF := c.float()
	_, action, rwbs := c.next(), c.next(), c.next()
	if rwbs == "" {
		return Request{}, false, fmt.Errorf("want >= 7 whitespace-separated fields (dev cpu seq time pid action rwbs ...), got %d", countWS(line, 7))
	}
	if strings.IndexByte(dev, ',') < 0 {
		return Request{}, false, fmt.Errorf("bad device %q (want maj,min)", dev)
	}
	if action != "Q" {
		return Request{}, true, nil // non-queue lifecycle record
	}
	var read, write, discard bool
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
	if discard {
		return Request{}, true, nil // discard, not a data transfer
	}
	if !read && !write {
		return Request{}, true, nil // barrier/flush with no data
	}
	sec, sectorF := c.int()
	plus := c.next()
	n, countF := c.int()
	if countF == "" || plus != "+" {
		return Request{}, false, fmt.Errorf("queue record without \"sector + count\"")
	}
	ts, err := toFloat(t, tsF)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad timestamp %q (want seconds)", tsF)
	}
	sector, err := toInt64(sec, sectorF)
	if err != nil || sector < 0 {
		return Request{}, false, fmt.Errorf("bad sector %q", sectorF)
	}
	count, err := toInt(n, countF)
	if err != nil || count < 0 {
		return Request{}, false, fmt.Errorf("bad sector count %q", countF)
	}
	if count == 0 {
		return Request{}, true, nil // zero-length op carries no data
	}
	if p.devs == nil {
		p.devs = make(map[string]int)
	}
	disk, ok := p.devs[dev]
	if !ok {
		disk = len(p.devs)
		p.devs[strings.Clone(dev)] = disk // dev aliases the scan buffer
	}
	return Request{
		ArrivalMs: ts * 1000, // seconds -> ms
		Disk:      disk,
		LBA:       sector,
		Sectors:   count,
		Read:      read,
	}, false, nil
}
