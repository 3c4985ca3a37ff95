package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/simkit"
)

// memberSectors is the capacity of one member of Websearch's MD array.
func memberSectors(t *testing.T) int64 {
	t.Helper()
	d, err := disk.New(simkit.New(), disk.Drive10K18GB(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d.Capacity()
}

// TestReplayRejectsRequestsOutsideTheSystem replays native traces whose
// third request (index 2) does not fit the target system. Each run must
// fail with an error naming that request and the offending field —
// not panic in a device, and not alias into another member's region.
func TestReplayRejectsRequestsOutsideTheSystem(t *testing.T) {
	member := memberSectors(t)
	for _, c := range []struct {
		name, system string
		bad          string // the third request's "disk lba sectors"
		want         string
	}{
		// Past the HC-SD's whole capacity, where the drive panics.
		{"hcsd past drive", "hcsd", fmt.Sprintf("5 %d 8", 40*member), "LBA"},
		{"sa2 past drive", "sa2", fmt.Sprintf("5 %d 8", 40*member), "LBA"},
		// Past the array, where the MD router panics.
		{"md past array", "md", "99 0 8", "Disk 99"},
		// Past one member, where the member drive panics.
		{"md past member", "md", fmt.Sprintf("0 %d 8", member-4), "LBA"},
		// Past its MD member but inside the HC-SD, where the remap
		// would land it in the next member's region.
		{"hcsd aliasing", "hcsd", fmt.Sprintf("0 %d 8", member), "LBA"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "foreign.trc")
			body := "0.0 0 100 8 R\n1.0 1 200 8 W\n2.0 " + c.bad + " R\n3.0 0 300 8 R\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run("Websearch", path, c.system, 0, 0, 1, 0, "", false, false, 1)
			if err == nil || !strings.Contains(err.Error(), "request 2") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run = %v; want an error naming request 2 and %s", err, c.want)
			}
		})
	}
}

// TestReplayRejectsExtentOverflow replays a native line whose LBA plus
// length passes MaxInt64. Wrapped, that end slipped under every
// capacity check and the drive panicked; the reader now rejects the
// line, and the run fails with an error naming it.
func TestReplayRejectsExtentOverflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overflow.trc")
	if err := os.WriteFile(path, []byte("0.5 0 9223372036854775800 16 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("Websearch", path, "hcsd", 0, 0, 1, 0, "", false, false, 1)
	if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("run = %v; want an error naming line 1 and the overflow", err)
	}
}
