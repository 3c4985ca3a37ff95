package obs

import (
	"fmt"
	"io"
	"sort"
)

// QueueStats reports dispatch-queue occupancy with precise semantics:
//
//   - Len is the number of requests waiting in the component's
//     foreground dispatch queue at snapshot time. Requests currently in
//     service are not queued; background-class work (SubmitBackground
//     requests) lives in a separate queue and is reported through a
//     registry gauge, never here.
//   - Max is the high-water mark of that same quantity over the run:
//     the largest Len observed immediately after any push onto the
//     foreground queue, whatever code path pushed (submission, defect
//     fragmentation, failure re-queues).
//
// Before this type existed the drive models disagreed: disk.Drive
// counted defect fragments in its high-water mark while
// core.ParallelDrive missed failure re-queues, and array roll-ups mixed
// the two. Every Snapshot now reports both numbers under one definition.
type QueueStats struct {
	Len int `json:"len"`
	Max int `json:"max"`
}

// merge folds other into q: instantaneous lengths add (the merged
// snapshot describes the union of components), high-water marks take
// the maximum (a merged high-water mark is "the deepest any constituent
// queue ever got", not a sum of peaks that never coincided).
func (q *QueueStats) merge(other QueueStats) {
	q.Len += other.Len
	if other.Max > q.Max {
		q.Max = other.Max
	}
}

// Snapshot is the uniform statistics surface every instrumented
// component returns (see device.Instrumented). Typed fields carry the
// universal request/queue quantities; the registry maps carry
// component-specific extras; Children nest member devices, so an array
// of parallel drives snapshots as a tree.
type Snapshot struct {
	// Device is the component instance label; Kind its family
	// ("disk", "parallel-drive", "raid", "route-by-disk", "bus", ...).
	Device string `json:"device"`
	Kind   string `json:"kind"`

	// Submitted counts requests accepted; Completed counts foreground
	// completions (cache hits included); BackgroundCompleted counts
	// background-class completions; CacheHits counts buffer-served
	// requests.
	Submitted           uint64 `json:"submitted"`
	Completed           uint64 `json:"completed"`
	BackgroundCompleted uint64 `json:"background_completed,omitempty"`
	CacheHits           uint64 `json:"cache_hits"`

	Queue QueueStats `json:"queue"`

	Counters   map[string]uint64     `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue `json:"gauges,omitempty"`
	Histograms map[string]Histogram  `json:"histograms,omitempty"`

	Children []Snapshot `json:"children,omitempty"`
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := s
	if s.Counters != nil {
		out.Counters = make(map[string]uint64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
	}
	if s.Gauges != nil {
		out.Gauges = make(map[string]GaugeValue, len(s.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
	}
	if s.Histograms != nil {
		out.Histograms = make(map[string]Histogram, len(s.Histograms))
		for k, v := range s.Histograms {
			out.Histograms[k] = v.Clone()
		}
	}
	if s.Children != nil {
		out.Children = make([]Snapshot, len(s.Children))
		for i, c := range s.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Merge folds other into a copy of s and returns it. The rules, applied
// recursively to children matched by index:
//
//   - request counters (Submitted, Completed, ...) and registry
//     counters add;
//   - queue stats merge per QueueStats.merge (lengths add, high-water
//     marks take the maximum);
//   - registry gauges add their instantaneous values and take the
//     maximum of high-water marks, mirroring QueueStats;
//   - histograms add bucket-wise (edge sets must match);
//   - Device and Kind keep the receiver's values: a merged snapshot
//     describes the receiver's shape aggregated over replicas.
//
// Merge is associative over snapshots of the same shape, and folding a
// slice left-to-right is deterministic, which is what lets fleet
// roll-ups merge per-job snapshots in submission order and stay
// bit-identical at any parallelism.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := s.Clone()
	out.Submitted += other.Submitted
	out.Completed += other.Completed
	out.BackgroundCompleted += other.BackgroundCompleted
	out.CacheHits += other.CacheHits
	out.Queue.merge(other.Queue)
	for k, v := range other.Counters {
		if out.Counters == nil {
			out.Counters = map[string]uint64{}
		}
		out.Counters[k] += v
	}
	for k, v := range other.Gauges {
		if out.Gauges == nil {
			out.Gauges = map[string]GaugeValue{}
		}
		g := out.Gauges[k]
		g.Value += v.Value
		if v.Max > g.Max {
			g.Max = v.Max
		}
		out.Gauges[k] = g
	}
	for k, v := range other.Histograms {
		if out.Histograms == nil {
			out.Histograms = map[string]Histogram{}
		}
		if h, ok := out.Histograms[k]; ok {
			h.merge(v)
			out.Histograms[k] = h
		} else {
			out.Histograms[k] = v.Clone()
		}
	}
	for i, c := range other.Children {
		if i < len(out.Children) {
			out.Children[i] = out.Children[i].Merge(c)
		} else {
			out.Children = append(out.Children, c.Clone())
		}
	}
	return out
}

// WriteText renders the snapshot as an indented, deterministic text
// tree (map keys sorted), suitable for the CLIs' -metrics output.
func WriteText(w io.Writer, s Snapshot) {
	writeText(w, s, 0)
}

func writeText(w io.Writer, s Snapshot, depth int) {
	pad := ""
	for i := 0; i < depth; i++ {
		pad += "  "
	}
	fmt.Fprintf(w, "%s%s (%s): submitted=%d completed=%d", pad, s.Device, s.Kind, s.Submitted, s.Completed)
	if s.BackgroundCompleted > 0 {
		fmt.Fprintf(w, " background=%d", s.BackgroundCompleted)
	}
	fmt.Fprintf(w, " cache_hits=%d queue_len=%d queue_max=%d\n", s.CacheHits, s.Queue.Len, s.Queue.Max)
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "%s  counter %-18s %d\n", pad, k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		g := s.Gauges[k]
		fmt.Fprintf(w, "%s  gauge   %-18s value=%g max=%g\n", pad, k, g.Value, g.Max)
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(w, "%s  hist    %-18s n=%d mean=%.3f buckets=", pad, k, h.N, h.Mean())
		for i, c := range h.Counts {
			if i > 0 {
				fmt.Fprint(w, "/")
			}
			fmt.Fprintf(w, "%d", c)
		}
		fmt.Fprintln(w)
	}
	for _, c := range s.Children {
		writeText(w, c, depth+1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
