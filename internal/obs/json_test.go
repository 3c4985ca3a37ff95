package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func testSnapshot() Snapshot {
	h := NewHistogram([]float64{0.5, 1, 2})
	h.Observe(0.25)
	h.Observe(1.5)
	h.Observe(9)
	return Snapshot{
		Device:    "sa4",
		Kind:      "parallel-drive",
		Submitted: 100,
		Completed: 99,
		CacheHits: 7,
		Queue:     QueueStats{Len: 1, Max: 12},
		Counters:  map[string]uint64{"zeta": 3, "alpha": 1, "mid": 2},
		Gauges: map[string]GaugeValue{
			"watts": {Value: 12.75, Max: 13.5},
			"arms":  {Value: 4, Max: 4},
		},
		Histograms: map[string]Histogram{"seek_ms": h.Clone()},
		Children: []Snapshot{
			{Device: "arm0", Kind: "actuator", Submitted: 50, Completed: 50, BackgroundCompleted: 3},
			{Device: "arm1", Kind: "actuator", Submitted: 50, Completed: 49},
		},
	}
}

// TestMarshalSnapshotCanonical pins the canonical form: repeated
// marshals are byte-identical (map iteration order never leaks), keys
// come out sorted, empties are omitted, floats use the documented
// shortest 'g' format.
func TestMarshalSnapshotCanonical(t *testing.T) {
	s := testSnapshot()
	a, err := MarshalSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		b, err := MarshalSnapshot(s.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("marshals differ:\n%s\n%s", a, b)
		}
	}
	got := string(a)
	if i, j := strings.Index(got, `"alpha"`), strings.Index(got, `"zeta"`); i < 0 || j < 0 || i > j {
		t.Errorf("counter keys not sorted in %s", got)
	}
	if strings.Contains(got, "background_completed\":0") {
		t.Errorf("zero background_completed not omitted: %s", got)
	}
	if !strings.Contains(got, `"value":12.75`) {
		t.Errorf("float not in shortest 'g' form: %s", got)
	}
	// The childless children must not appear as empty arrays.
	if strings.Contains(got, "[]") || strings.Contains(got, "{}") {
		t.Errorf("empty composites emitted: %s", got)
	}
}

// TestMarshalSnapshotRoundTrip checks the canonical bytes parse back
// into an equal tree, and that re-marshaling the parsed tree reproduces
// the bytes exactly.
func TestMarshalSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	data, err := MarshalSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeEmpties(s), normalizeEmpties(back)) {
		t.Errorf("round trip changed the snapshot:\n%+v\nvs\n%+v", s, back)
	}
	again, err := MarshalSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("re-marshal differs:\n%s\n%s", data, again)
	}
}

// normalizeEmpties maps nil and empty maps and slices to nil so
// DeepEqual compares content, not the nil/empty distinction the
// canonical form does not keep.
func normalizeEmpties(s Snapshot) Snapshot {
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Histograms) == 0 {
		s.Histograms = nil
	}
	for k, h := range s.Histograms {
		if len(h.Edges) == 0 {
			h.Edges = nil
		}
		if len(h.Counts) == 0 {
			h.Counts = nil
		}
		s.Histograms[k] = h
	}
	if len(s.Children) == 0 {
		s.Children = nil
	}
	for i := range s.Children {
		s.Children[i] = normalizeEmpties(s.Children[i])
	}
	return s
}

// TestMarshalSnapshotQuotesAnyString: any label, control characters
// and invalid UTF-8 included, encodes as a JSON string that parses back
// to the label as json.Unmarshal reads it (an invalid byte as U+FFFD),
// and printable ASCII is quoted as strconv.Quote quotes it.
func TestMarshalSnapshotQuotesAnyString(t *testing.T) {
	for label, want := range map[string]string{
		`sa4/(1/2)S "q" \ x`: `sa4/(1/2)S "q" \ x`,
		"\x00\x1f\x7f\t\n\r": "\x00\x1f\x7f\t\n\r",
		"a\xffb\u2028é":      "a\ufffdb\u2028é",
	} {
		data, err := MarshalSnapshot(Snapshot{Device: label})
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("%q: invalid JSON %s", label, data)
		}
		back, err := UnmarshalSnapshot(data)
		if err != nil || back.Device != want {
			t.Fatalf("%q: parsed back as %q, %v; want %q", label, back.Device, err, want)
		}
		if again, _ := MarshalSnapshot(back); !bytes.Equal(again, data) {
			t.Fatalf("%q: re-marshal differs:\n%s\n%s", label, data, again)
		}
	}
	data, _ := MarshalSnapshot(Snapshot{Device: ` !"#$%&'()*+,-./09:;<=>?@AZ[\]^_` + "`az{|}~"})
	if want := `{"device":` + strconv.Quote(` !"#$%&'()*+,-./09:;<=>?@AZ[\]^_`+"`az{|}~") + `,`; !strings.HasPrefix(string(data), want) {
		t.Fatalf("printable ASCII quoted as %s, want the prefix %s", data, want)
	}
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to UnmarshalSnapshot,
// which must never panic. Whatever parses must survive the canonical
// form: marshal, unmarshal and marshal again give identical bytes, and
// the snapshot parsed back equals the one first parsed.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, s := range []Snapshot{
		testSnapshot(),
		{Device: "d", Kind: "k", Gauges: map[string]GaugeValue{"g": {Value: -0.0, Max: 1e-300}}},
		{Device: "arm0", Kind: "actuator", Submitted: 50, Completed: 50, BackgroundCompleted: 3},
	} {
		data, err := MarshalSnapshot(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"device":"a\u0001b","kind":"\u007f\t","counters":{},"children":[]}`))
	f.Add([]byte(`{"histograms":{"h":{"edges":null,"counts":[],"sum":-0,"n":1}},"queue":{"len":-3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		once, err := MarshalSnapshot(s)
		if err != nil {
			t.Fatalf("marshaling a parsed snapshot: %v", err)
		}
		back, err := UnmarshalSnapshot(once)
		if err != nil {
			t.Fatalf("the canonical form %s does not parse: %v", once, err)
		}
		twice, err := MarshalSnapshot(back)
		if err != nil {
			t.Fatalf("marshaling the snapshot parsed back: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-marshal differs:\n%s\n%s", once, twice)
		}
		if !reflect.DeepEqual(normalizeEmpties(s), normalizeEmpties(back)) {
			t.Fatalf("round trip changed the snapshot:\n%+v\nvs\n%+v", s, back)
		}
	})
}

// TestMarshalSnapshotNonFinite: NaN and Inf have no canonical form and
// must error rather than emit invalid JSON.
func TestMarshalSnapshotNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Snapshot{Device: "d", Kind: "k", Gauges: map[string]GaugeValue{"g": {Value: v}}}
		if _, err := MarshalSnapshot(s); err == nil {
			t.Errorf("MarshalSnapshot with gauge %v: want error, got nil", v)
		}
	}
}
