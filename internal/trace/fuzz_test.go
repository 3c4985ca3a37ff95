package trace

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var lineRef = regexp.MustCompile(`line \d+`)

// ingest opens data with the given reorder window and drains it,
// failing t if a stream error names no line or an emitted arrival is
// non-finite or decreasing. ok is false when the format is not
// recognized.
func ingest(t *testing.T, data []byte, window int) (reqs []Request, format Format, ok bool, err error) {
	rd, err := Open(bytes.NewReader(data), ReaderOpts{ReorderWindow: window})
	if err != nil {
		return nil, "", false, nil // unrecognized input; Open names no line
	}
	reqs, err = drain(rd)
	for i, r := range reqs {
		if math.IsNaN(r.ArrivalMs) || math.IsInf(r.ArrivalMs, 0) {
			t.Fatalf("non-finite arrival %v emitted", r.ArrivalMs)
		}
		if i > 0 && r.ArrivalMs < reqs[i-1].ArrivalMs {
			t.Fatalf("arrival %v after %v", r.ArrivalMs, reqs[i-1].ArrivalMs)
		}
	}
	if err != nil && !lineRef.MatchString(err.Error()) {
		t.Fatalf("error names no line: %v", err)
	}
	return reqs, rd.Format(), true, err
}

// FuzzOpen feeds arbitrary bytes through the sniffing front door. Open
// and Next must never panic, every stream error must name a line, and
// emitted arrivals must be finite and non-decreasing. An input that
// ingests cleanly without a reorder window must ingest the same with
// one. A clean native input must also reproduce its own bytes once
// written: WriteStream, then NewNativeReader and WriteStream again.
func FuzzOpen(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "sample.*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no fixtures: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(0))
	}
	f.Add([]byte("# native\n0.5 0 100 8 R\n1.25 3 999999 64 W\n1.25 1 8 16 r\n"), uint8(2))
	f.Add([]byte("0.5 0 100 8 R\nNaN 0 200 8 R\n1.0 0 300 8 W\n"), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, window uint8) {
		reqs, format, ok, err := ingest(t, data, 0)
		if !ok {
			return
		}
		if w := int(window % 8); w > 0 {
			windowed, _, _, werr := ingest(t, data, w)
			if err == nil && (werr != nil || !reflect.DeepEqual(windowed, reqs)) {
				t.Fatalf("a %d-request reorder window changed a sorted trace (err %v)", w, werr)
			}
		}
		if err != nil || format != FormatNative {
			return
		}
		var first, second bytes.Buffer
		if _, err := WriteStream(&first, NewNativeReader(bytes.NewReader(data), ReaderOpts{})); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if _, err := WriteStream(&second, NewNativeReader(bytes.NewReader(first.Bytes()), ReaderOpts{})); err != nil {
			t.Fatalf("re-read of written trace: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("native round trip changed bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// refParser is the parse method of the reference parsers in
// ref_parsers_test.go.
type refParser interface {
	parse(line string) (Request, bool, error)
}

// sameParse reports whether two parse results are identical: the same
// skip flag, the same error text, and the same Request, arrival
// compared by its bits (so -0 differs from 0).
func sameParse(r Request, skip bool, err error, wr Request, wskip bool, werr error) bool {
	if skip != wskip || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		return false
	}
	return math.Float64bits(r.ArrivalMs) == math.Float64bits(wr.ArrivalMs) &&
		r.Disk == wr.Disk && r.LBA == wr.LBA && r.Sectors == wr.Sectors && r.Read == wr.Read
}

// FuzzParseMatchesReference feeds every line of arbitrary input, as
// the Reader hands it over (trimmed, neither blank nor a comment), to
// each format's parser and to its reference, the parser as it stood
// before the digit fast paths and field cursors. Both keep their state
// (MSR's first tick, blkparse's device map) across the lines, and every
// line must give the same Request, skip flag and error text.
func FuzzParseMatchesReference(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "sample.*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no fixtures: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, line := range []string{
		// Plain digits at the fast paths' bounds: 18 and 19 integer
		// digits, mantissas either side of 2^52, and two past 2^53,
		// where converting the mantissa rounds and dividing by 10^k
		// rounds again to a different float than strconv's.
		"123456789012345678 1 999999999999999999 1000000000000000000 R",
		"4503599627370495 0 1 8 R",
		"4503599627370496 0 1 8 R",
		"450359962737049.5 0 1 8 R",
		"319331286670323.58 0 1 8 W",
		"0,0,4096,r,774916386672.61529",
		"1234567.890123456789 0 1 8 W",
		"0.0000000000000000001 0 1 8 R",
		"0000000000000000001.5 0 1 8 R",
		// Forms only strconv reads: signs, exponents, hex, underscores,
		// a bare or leading point, and special values.
		"+1.5 +0 +100 +8 R",
		"+ 0 + 8 R",
		"0,+,4096,r,+.",
		"-0 -0 -1 -8 w",
		"1e3 0x10 1_000 08 r",
		".5 0 1 8 R",
		"5. 0 1 8 R",
		"+Inf 0 1 8 R",
		"1.5.5 0 1 8 R",
		"0.5 0 100 8 R extra",
		"0,0,4096,r,0.5",
		" 7 , 100 ,\t4096 , R , 1.25 ",
		"\u00a03,100,4096,w,\u00a01.5\u0085",
		"+3,+100,+4096,r,+1.5",
		"3,100,4096,r",
		"3,100,4096,r,1.5,extra,fields",
		"9223372036854775807,h,0,Read,0,512,1",
		"-9223372036854775808,h,0,Read,512,512,1",
		"128166372003000000,srv, 1 ,WRITE,4096,4096,500",
		"128166372003000000,srv,1,Read,-4096,4096,500",
		"8,0 1 1 0.000000001 42 Q R 100 + 8 [fio]",
		"8,16 1 2 1.5 42 Q WS 100 + 0 [fio]",
		"8,0 1 3 1.5 42 Q R 100 + -8 [fio]",
		"8,0 1 4 1.5 42 C R 100 + 8 [0]",
		"8,0 1 5 +1.5 42 Q RA 100 + 8",
		// rwbs flags in any order: a discard is skipped even when it
		// also reads R or W, and a flush reads neither.
		"8,0 1 6 1.5 42 Q WD 100 + 8 [fio]",
		"8,0 1 7 1.5 42 Q DR 100 + 8 [fio]",
		"8,0 1 8 1.5 42 Q FWFS 100 + 8 [fio]",
		"8,0 1 9 1.5 42 Q F 100 + 8 [fio]",
	} {
		f.Add([]byte(line))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := []struct {
			name string
			got  lineParser
			want refParser
		}{
			{"native", nativeParser{}, refNativeParser{}},
			{"spc", spcParser{}, refSPCParser{}},
			{"msr", &msrParser{}, &refMSRParser{}},
			{"blkparse", &blkparseParser{}, &refBlkparseParser{}},
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			for _, p := range pairs {
				r, skip, err := p.got.parse(line)
				wr, wskip, werr := p.want.parse(line)
				if !sameParse(r, skip, err, wr, wskip, werr) {
					t.Fatalf("%s: line %q:\n got %s\nwant %s", p.name, line,
						parseResult(r, skip, err), parseResult(wr, wskip, werr))
				}
			}
		}
	})
}

func parseResult(r Request, skip bool, err error) string {
	return fmt.Sprintf("%+v (arrival bits %#x) skip=%v err=%v", r, math.Float64bits(r.ArrivalMs), skip, err)
}
