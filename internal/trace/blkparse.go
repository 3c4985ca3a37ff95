package trace

import (
	"fmt"
	"strconv"
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
	var f [10]string
	n := splitWS(line, f[:])
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
