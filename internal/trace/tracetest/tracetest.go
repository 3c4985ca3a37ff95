// Package tracetest converts between request slices and trace.Streams,
// for tests that need exact request sequences rather than a generator
// or a trace file.
package tracetest

import "repro/internal/trace"

type list []trace.Request

func (s *list) Next() (trace.Request, bool) {
	if len(*s) == 0 {
		return trace.Request{}, false
	}
	r := (*s)[0]
	*s = (*s)[1:]
	return r, true
}

// Stream returns a one-pass stream over reqs, which it does not modify.
func Stream(reqs []trace.Request) trace.Stream {
	s := list(reqs)
	return &s
}

// Collect drains s, returning its requests and terminal error.
func Collect(s trace.Stream) ([]trace.Request, error) {
	var out []trace.Request
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		out = append(out, r)
	}
	return out, trace.Err(s)
}
