package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// MarshalSnapshot renders a snapshot tree as canonical JSON: the byte
// sequence is a pure function of the snapshot's values, pinned by test,
// so it can serve as cache content and be compared byte-for-byte.
//
// The canonical form is ordinary JSON — json.Unmarshal round-trips it
// into an equal Snapshot — with every degree of freedom fixed:
//
//   - struct fields appear in declaration order, matching the json
//     tags on Snapshot (device, kind, submitted, completed,
//     background_completed, cache_hits, queue, counters, gauges,
//     histograms, children);
//   - background_completed is omitted when zero, and empty maps and
//     child lists are omitted entirely (never emitted as {} or []),
//     mirroring the omitempty tags;
//   - map keys are emitted in ascending byte order;
//   - strings escape only '"', '\\' and control characters (\n, \r and
//     \t by their short forms, the rest as \u00XX); every other
//     character is written as UTF-8, and an invalid UTF-8 byte as
//     U+FFFD, which is what json.Unmarshal reads it as. Printable
//     ASCII, and so every label a device emits, is quoted exactly as
//     strconv.Quote quotes it;
//   - floats use strconv.FormatFloat(v, 'g', -1, 64): the shortest
//     representation that parses back to the same float64, with no
//     locale or width variation;
//   - no whitespace.
//
// Non-finite floats have no JSON representation; a NaN or ±Inf anywhere
// in the tree is an error (no instrument should produce one).
func MarshalSnapshot(s Snapshot) ([]byte, error) {
	e := &jsonEncoder{}
	e.snapshot(s)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// UnmarshalSnapshot parses a snapshot marshaled by MarshalSnapshot (or
// any equivalent JSON encoding of the Snapshot struct).
func UnmarshalSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: unmarshal snapshot: %w", err)
	}
	return s, nil
}

// jsonEncoder accumulates the canonical encoding; the first non-finite
// float poisons it.
type jsonEncoder struct {
	buf []byte
	err error
}

func (e *jsonEncoder) raw(s string) { e.buf = append(e.buf, s...) }

// str appends s as a JSON string (see MarshalSnapshot for the form).
func (e *jsonEncoder) str(s string) {
	const hex = "0123456789abcdef"
	e.buf = append(e.buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			e.buf = append(e.buf, '\\', c)
		case c == '\n':
			e.buf = append(e.buf, '\\', 'n')
		case c == '\r':
			e.buf = append(e.buf, '\\', 'r')
		case c == '\t':
			e.buf = append(e.buf, '\\', 't')
		case c < 0x20:
			e.buf = append(e.buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c < utf8.RuneSelf:
			e.buf = append(e.buf, c)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			e.buf = utf8.AppendRune(e.buf, r) // an invalid byte is RuneError, size 1
			i += size
			continue
		}
		i++
	}
	e.buf = append(e.buf, '"')
}

func (e *jsonEncoder) uns(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }
func (e *jsonEncoder) ints(v int)   { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }
func (e *jsonEncoder) flt(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("obs: non-finite value %v has no canonical JSON form", v)
		}
		e.buf = append(e.buf, '0')
		return
	}
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
}

// field emits the separator and quoted key of an object member; first
// distinguishes the opening member.
func (e *jsonEncoder) field(first *bool, name string) {
	if !*first {
		e.raw(",")
	}
	*first = false
	e.str(name)
	e.raw(":")
}

func (e *jsonEncoder) snapshot(s Snapshot) {
	e.raw("{")
	first := true
	e.field(&first, "device")
	e.str(s.Device)
	e.field(&first, "kind")
	e.str(s.Kind)
	e.field(&first, "submitted")
	e.uns(s.Submitted)
	e.field(&first, "completed")
	e.uns(s.Completed)
	if s.BackgroundCompleted != 0 {
		e.field(&first, "background_completed")
		e.uns(s.BackgroundCompleted)
	}
	e.field(&first, "cache_hits")
	e.uns(s.CacheHits)
	e.field(&first, "queue")
	e.raw(`{"len":`)
	e.ints(s.Queue.Len)
	e.raw(`,"max":`)
	e.ints(s.Queue.Max)
	e.raw("}")
	if len(s.Counters) > 0 {
		e.field(&first, "counters")
		e.raw("{")
		for i, k := range sortedKeys(s.Counters) {
			if i > 0 {
				e.raw(",")
			}
			e.str(k)
			e.raw(":")
			e.uns(s.Counters[k])
		}
		e.raw("}")
	}
	if len(s.Gauges) > 0 {
		e.field(&first, "gauges")
		e.raw("{")
		for i, k := range sortedKeys(s.Gauges) {
			if i > 0 {
				e.raw(",")
			}
			g := s.Gauges[k]
			e.str(k)
			e.raw(`:{"value":`)
			e.flt(g.Value)
			e.raw(`,"max":`)
			e.flt(g.Max)
			e.raw("}")
		}
		e.raw("}")
	}
	if len(s.Histograms) > 0 {
		e.field(&first, "histograms")
		e.raw("{")
		for i, k := range sortedKeys(s.Histograms) {
			if i > 0 {
				e.raw(",")
			}
			e.str(k)
			e.raw(":")
			e.histogram(s.Histograms[k])
		}
		e.raw("}")
	}
	if len(s.Children) > 0 {
		e.field(&first, "children")
		e.raw("[")
		for i, c := range s.Children {
			if i > 0 {
				e.raw(",")
			}
			e.snapshot(c)
		}
		e.raw("]")
	}
	e.raw("}")
}

func (e *jsonEncoder) histogram(h Histogram) {
	e.raw(`{"edges":[`)
	for i, v := range h.Edges {
		if i > 0 {
			e.raw(",")
		}
		e.flt(v)
	}
	e.raw(`],"counts":[`)
	for i, v := range h.Counts {
		if i > 0 {
			e.raw(",")
		}
		e.uns(v)
	}
	e.raw(`],"sum":`)
	e.flt(h.Sum)
	e.raw(`,"n":`)
	e.uns(h.N)
	e.raw("}")
}
