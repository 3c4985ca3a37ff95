package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
)

// FuzzQuery drives arbitrary bytes through the query front door —
// decodeQuery, Normalize, Validate, Key — and checks it never panics
// and that the cache key is a function of the question alone:
// normalizing is idempotent and leaves the key unchanged, the key
// survives a JSON round trip of the normalized query, and every query
// serving accepts is one the model accepts.
func FuzzQuery(f *testing.F) {
	names := make([]string, 0, len(invalidQueries))
	for name := range invalidQueries {
		names = append(names, name)
	}
	sort.Strings(names) // seeds in a fixed order, so seed#N names one body
	for _, name := range names {
		f.Add([]byte(invalidQueries[name].body))
	}
	valid, err := json.Marshal(testQuery())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(body []byte) (Query, error) {
			return decodeQuery(httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		}
		q, err := decode(data)
		if err != nil {
			return
		}
		n := q.Normalize()
		if nn := n.Normalize(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalize not idempotent:\n%+v\n%+v", n, nn)
		}
		key, err := q.Key("fuzz")
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		if nkey, err := n.Key("fuzz"); err != nil || nkey != key {
			t.Fatalf("Key(q) = %s, Key(q.Normalize()) = %s, %v", key, nkey, err)
		}
		canon, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshaling the normalized query: %v", err)
		}
		back, err := decode(canon)
		if err != nil {
			t.Fatalf("decoding the normalized query %s: %v", canon, err)
		}
		if bkey, err := back.Key("fuzz"); err != nil || bkey != key {
			t.Fatalf("key changed across a JSON round trip of %s: %s vs %s, %v", canon, key, bkey, err)
		}
		if q.Validate() == nil {
			if err := q.WhatIfQuery.Validate(); err != nil {
				t.Fatalf("serving accepts a query the model rejects: %v", err)
			}
		}
	})
}
