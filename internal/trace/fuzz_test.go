package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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
