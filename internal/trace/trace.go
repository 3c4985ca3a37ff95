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
	if err := validateShape(&r); err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	if r.ArrivalMs < 0 {
		return fmt.Errorf("trace: negative arrival %v", r.ArrivalMs)
	}
	return nil
}

// parseNative reads the repository's own text format, one request per
// line: "<arrival-ms> <disk> <lba> <sectors> <R|W>". Unlike the foreign
// formats, native arrivals are absolute simulation times and are never
// rebased.
func parseNative(line string, r *Request) (skip bool, err error) {
	if nativePlain(line, r) {
		return false, nil
	}
	c := wsCursor{line}
	a, f0 := c.float()
	d, f1 := c.int()
	l, f2 := c.int()
	n, f3 := c.int()
	op := c.next()
	if op == "" || c.next() != "" {
		return false, fmt.Errorf("want 5 fields, got %d", countWS(line, 6))
	}
	arrival, err := toFloat(a, f0)
	if err != nil {
		return false, fmt.Errorf("bad arrival: %v", err)
	}
	disk, err := toInt(d, f1)
	if err != nil {
		return false, fmt.Errorf("bad disk: %v", err)
	}
	lba, err := toInt64(l, f2)
	if err != nil {
		return false, fmt.Errorf("bad lba: %v", err)
	}
	sectors, err := toInt(n, f3)
	if err != nil {
		return false, fmt.Errorf("bad sectors: %v", err)
	}
	var read bool
	switch op {
	case "R", "r":
		read = true
	case "W", "w":
		read = false
	default:
		return false, fmt.Errorf("bad op %q", op)
	}
	*r = Request{ArrivalMs: arrival, Disk: disk, LBA: lba, Sectors: sectors, Read: read}
	return false, nil
}

// nativePlain reads a line whose five fields are plain, as every line
// WriteStream writes is: a digits[.digits] arrival, disk, LBA and
// sector count in digits alone, each short enough for scanFloat or
// scanInt to read exactly, and a one-letter op. It reads them in one
// pass and reports false for any other line, which parseNative then
// reads field by field; on the lines it accepts, both reads give the
// same request.
func nativePlain(s string, r *Request) bool {
	arrival, i := scanFloat(s)
	if arrival < 0 || i == len(s) || !isWS(s[i]) {
		return false
	}
	s = trimLeftWS(s[i:])
	disk, i := scanIntN(s)
	if disk < 0 || i == len(s) || !isWS(s[i]) {
		return false
	}
	s = trimLeftWS(s[i:])
	lba, i := scanInt(s)
	if lba < 0 || i == len(s) || !isWS(s[i]) {
		return false
	}
	s = trimLeftWS(s[i:])
	sectors, i := scanIntN(s)
	if sectors < 0 || i == len(s) || !isWS(s[i]) {
		return false
	}
	s = trimLeftWS(s[i:])
	if len(s) != 1 {
		return false
	}
	var read bool
	switch s[0] {
	case 'R', 'r':
		read = true
	case 'W', 'w':
	default:
		return false
	}
	// Field by field: a composite literal is built on the stack and
	// copied in 16-byte moves that stall on its 8-byte stores.
	r.ArrivalMs, r.Disk, r.LBA, r.Sectors, r.Read = arrival, disk, lba, sectors, read
	return true
}
