package model

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// referenceTaskset decodes the way DecodeTaskset did before the
// single-pass decoder: encoding/json, lenient about unknown fields.
func referenceTaskset(t *testing.T, data []byte) *Taskset {
	t.Helper()
	ts := new(Taskset)
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(ts); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return ts
}

// TestDecodeCanonicalMatchesReference decodes a model-built taskset whose
// single-vertex task has nil Edges, which EncodeTaskset writes as null,
// and the same taskset with every list present.
func TestDecodeCanonicalMatchesReference(t *testing.T) {
	for _, ts := range []*Taskset{
		hashTaskSet(t, nil),
		hashTaskSet(t, func(ts *Taskset) { ts.Tasks[1].Edges = []Edge{} }),
	} {
		var buf bytes.Buffer
		if err := EncodeTaskset(&buf, ts); err != nil {
			t.Fatal(err)
		}
		got, ok := decodeCanonical(buf.Bytes())
		if !ok {
			t.Fatalf("EncodeTaskset output declined: %s", buf.Bytes())
		}
		if want := referenceTaskset(t, buf.Bytes()); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree:\nfast: %+v\njson: %+v", got, want)
		}
	}
}

// TestDecodeTasksetFallbackKeepsLeniency: documents the decoder declines
// still decode exactly as before — unknown fields ignored, only the first
// JSON value read — and finalize to the same content address.
func TestDecodeTasksetFallbackKeepsLeniency(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeTaskset(&buf, hashTaskSet(t, nil)); err != nil {
		t.Fatal(err)
	}
	doc := strings.TrimSpace(buf.String())
	want, err := DecodeTaskset(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for name, variant := range map[string]string{
		"unknown field":  `{"comment":"hand-written",` + doc[1:],
		"upper-case key": strings.Replace(doc, `"num_procs"`, `"NUM_PROCS"`, 1),
		"trailing value": doc + ` {"ignored":true}`,
	} {
		if _, ok := decodeCanonical([]byte(variant)); ok {
			t.Fatalf("%s: decoder accepted a non-canonical document", name)
		}
		got, err := DecodeTaskset(strings.NewReader(variant))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("%s: hash %s, want %s", name, got.Hash(), want.Hash())
		}
	}
}

func TestParseIntCanonical(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"7,", 7, true},
		{"-12}", -12, true},
		{"9223372036854775807", 1<<63 - 1, true},
		{"-9223372036854775808", -1 << 63, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
		{"99999999999999999999", 0, false},
		{"-0", 0, false},
		{"01", 0, false},
		{"-01", 0, false},
		{"-", 0, false},
		{"+1", 0, false},
		{"", 0, false},
	} {
		v, n, ok := parseInt([]byte(tc.in))
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("parseInt(%q) = %d, %v; want %d, %v", tc.in, v, ok, tc.want, tc.ok)
		}
		if ok && n != len(strings.TrimRight(tc.in, ",}")) {
			t.Errorf("parseInt(%q) consumed %d bytes", tc.in, n)
		}
	}
}
