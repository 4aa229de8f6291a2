package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// EncodeTaskset writes the taskset as JSON. The derived quantities are not
// serialized; DecodeTaskset re-validates and recomputes them.
func EncodeTaskset(w io.Writer, ts *Taskset) error {
	return json.NewEncoder(w).Encode(ts)
}

// DecodeTaskset reads a taskset produced by EncodeTaskset (or cmd/taskgen)
// and finalizes it. Canonical documents take the single-pass Decoder;
// anything it declines is decoded by encoding/json exactly as before:
// unknown fields are ignored and only the first JSON value is read.
func DecodeTaskset(r io.Reader) (*Taskset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: decoding taskset: %w", err)
	}
	ts, ok := decodeCanonical(data)
	if !ok {
		ts = new(Taskset)
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(ts); err != nil {
			return nil, fmt.Errorf("model: decoding taskset: %w", err)
		}
	}
	if err := ts.Finalize(); err != nil {
		return nil, err
	}
	return ts, nil
}

// decodeCanonical decodes a document that is exactly one canonical
// taskset; false means the Decoder declined.
func decodeCanonical(data []byte) (*Taskset, bool) {
	d := NewDecoder(data)
	defer d.Release()
	ts := d.Taskset()
	return ts, d.End()
}
