// Package trace defines the I/O request stream representation used
// throughout the simulator, a plain-text trace format (one request per
// line, in the spirit of the SPC format the UMass repository traces use),
// and synthesizers that generate streams shaped like the paper's four
// commercial workloads (Table 2).
package trace

import "fmt"

// Request is one I/O request presented to a storage system.
type Request struct {
	ArrivalMs float64 // arrival time at the storage system, ms
	Disk      int     // target disk within the traced array (MD routing)
	LBA       int64   // first logical block on that disk
	Sectors   int     // transfer length in sectors
	Read      bool    // true for reads, false for writes
}

// End reports the first block past the request.
func (r Request) End() int64 { return r.LBA + int64(r.Sectors) }

// Validate reports the first problem with the request, if any.
func (r Request) Validate() error {
	if err := validateShape(r); err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	if r.ArrivalMs < 0 {
		return fmt.Errorf("trace: negative arrival %v", r.ArrivalMs)
	}
	return nil
}

// nativeParser reads the repository's own text format, one request per
// line: "<arrival-ms> <disk> <lba> <sectors> <R|W>". Unlike the foreign
// formats, native arrivals are absolute simulation times and are never
// rebased.
type nativeParser struct{}

func (nativeParser) format() Format { return FormatNative }

func (nativeParser) parse(line string) (Request, bool, error) {
	c := wsCursor{line}
	a, f0 := c.float()
	d, f1 := c.int()
	l, f2 := c.int()
	n, f3 := c.int()
	op := c.next()
	if op == "" || c.next() != "" {
		return Request{}, false, fmt.Errorf("want 5 fields, got %d", countWS(line, 6))
	}
	arrival, err := toFloat(a, f0)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad arrival: %v", err)
	}
	disk, err := toInt(d, f1)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad disk: %v", err)
	}
	lba, err := toInt64(l, f2)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad lba: %v", err)
	}
	sectors, err := toInt(n, f3)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad sectors: %v", err)
	}
	var read bool
	switch op {
	case "R", "r":
		read = true
	case "W", "w":
		read = false
	default:
		return Request{}, false, fmt.Errorf("bad op %q", op)
	}
	return Request{ArrivalMs: arrival, Disk: disk, LBA: lba, Sectors: sectors, Read: read}, false, nil
}
