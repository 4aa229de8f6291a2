package model

import (
	"sync"

	"dpcpp/internal/rt"
)

// Decoder is a single-pass decoder for the canonical subset of the
// taskset wire schema. It reads one byte slice left to right and builds
// the values it returns directly, without reflection.
//
// The subset is what EncodeTaskset and json.Marshal produce: exact
// lowercase keys, no duplicate keys, escape-free printable-ASCII strings,
// canonical int64 integers (no sign on zero, no leading zeros, no
// fraction or exponent), and null only where encoding/json decodes it
// as nil: slice and map fields and the envelope's taskset pointer. Every document in the subset means
// the same to encoding/json, so on it the Decoder returns exactly what
// encoding/json would. On anything outside it the Decoder declines: it
// stops, End reports false, and the caller decodes the same bytes with
// encoding/json, which stays the reference and decides acceptance, error
// text and any leniency (unknown fields, case-folded keys, escapes). The
// Decoder never rejects a document on its own authority.
//
// The exported cursor methods (Object, Field, Int, Int64, Bool, String,
// Strings, Taskset, End) let a caller decode an envelope around a taskset
// with the same cursor, as the /v1/analyze handler does. Values
// are allocated at their final size from per-Decoder scratch, so a
// pooled Decoder (NewDecoder/Release) allocates only what it returns.
// Strings are copied out of the input, which the caller may reuse once
// decoding is done.
type Decoder struct {
	b   []byte
	i   int
	bad bool

	// Scratch for one array at a time of each element type; the decoded
	// slice is copied out at its exact length when the array closes.
	tasks []*Task
	verts []Vertex
	edges []Edge
	times []rt.Time
	reqs  []request
	strs  []string
}

type request struct {
	q rt.ResourceID
	n int
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// NewDecoder returns a pooled Decoder positioned at the start of b.
// Release it when done.
func NewDecoder(b []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.b, d.i, d.bad = b, 0, false
	return d
}

// Release drops the Decoder's reference to its input and returns it to
// the pool.
func (d *Decoder) Release() {
	d.b = nil
	decoderPool.Put(d)
}

func (d *Decoder) decline() { d.bad = true }

// peek skips whitespace and returns the next byte, or 0 at the end of
// input.
func (d *Decoder) peek() byte {
	b, i := d.b, d.i
	for ; i < len(b); i++ {
		switch c := b[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.i = i
			return c
		}
	}
	d.i = i
	return 0
}

// expect consumes c as the next non-whitespace byte or declines.
func (d *Decoder) expect(c byte) bool {
	if d.bad || d.peek() != c {
		d.decline()
		return false
	}
	d.i++
	return true
}

// End reports whether decoding succeeded and only whitespace follows the
// document; false means the Decoder declined and every value it returned
// is meaningless. It tests the position, not peek's result, since peek's
// end-of-input 0 is also a byte a body may contain.
func (d *Decoder) End() bool {
	if d.peek(); d.i < len(d.b) {
		d.decline()
	}
	return !d.bad
}

// Null consumes a null literal if one is next and reports whether it did.
// encoding/json decodes null into a slice, map or pointer as nil, which is
// what such a field holds until its key is read (a repeated key declines),
// so a caller may accept null there and leave the field unset.
func (d *Decoder) Null() bool {
	if d.bad || d.peek() != 'n' {
		return false
	}
	return d.lit("null")
}

// Object consumes the opening brace of an object.
func (d *Decoder) Object() bool { return d.expect('{') }

// Field consumes the next member's key and colon and returns the key's
// index in keys. It returns -1 once the closing brace is consumed, or on
// decline: an unknown key, a repeated key (seen records the keys read so
// far; start it at zero per object) or malformed syntax.
func (d *Decoder) Field(keys []string, seen *uint32) int {
	if d.bad {
		return -1
	}
	if d.peek() == '}' {
		d.i++
		return -1
	}
	if *seen != 0 && !d.expect(',') {
		return -1
	}
	k := d.str()
	if !d.expect(':') {
		return -1
	}
	for i, key := range keys {
		if string(k) == key {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return i
		}
	}
	d.decline()
	return -1
}

// array consumes the opening bracket of an array. It reports false on a
// null, which leaves the slice nil as encoding/json does.
func (d *Decoder) array() bool { return !d.Null() && d.expect('[') }

// elem reports whether another element follows, consuming the separator
// before it; n is the number of elements already read. It returns false
// once the closing bracket is consumed, or on decline.
func (d *Decoder) elem(n int) bool {
	if d.bad {
		return false
	}
	if d.peek() == ']' {
		d.i++
		return false
	}
	return n == 0 || d.expect(',')
}

// str consumes an escape-free printable-ASCII string and returns its
// bytes, aliasing the input.
func (d *Decoder) str() []byte {
	if !d.expect('"') {
		return nil
	}
	b, start := d.b, d.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			d.decline()
			return nil
		}
	}
	d.decline()
	return nil
}

// String decodes a string value into a fresh copy.
func (d *Decoder) String() string { return string(d.str()) }

// Bool decodes true or false.
func (d *Decoder) Bool() bool {
	switch d.peek() {
	case 't':
		if d.lit("true") {
			return true
		}
	case 'f':
		d.lit("false")
	default:
		d.decline()
	}
	return false
}

func (d *Decoder) lit(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		d.decline()
		return false
	}
	d.i += len(s)
	return true
}

// Int64 decodes a canonical int64: an optional minus, then 0 or a digit
// string without a leading zero, not followed by a fraction or exponent.
// "-0" and values outside int64 decline.
func (d *Decoder) Int64() int64 {
	if d.bad || d.peek() == 0 {
		d.decline()
		return 0
	}
	v, n, ok := parseInt(d.b[d.i:])
	if !ok {
		d.decline()
		return 0
	}
	d.i += n
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case '.', 'e', 'E':
			d.decline()
			return 0
		}
	}
	return v
}

// parseInt parses the canonical int64 prefix of b, returning the value
// and the bytes consumed. A digit after a leading zero fails.
func parseInt(b []byte) (int64, int, bool) {
	i, neg := 0, false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i > start && b[start] == '0' {
			return 0, 0, false
		}
		if u > (1<<63)/10 {
			return 0, 0, false
		}
		u = u*10 + uint64(b[i]-'0')
		if u > 1<<63 {
			return 0, 0, false
		}
	}
	switch {
	case i == start, neg && u == 0, !neg && u == 1<<63:
		return 0, 0, false
	case neg:
		return -int64(u-1) - 1, i, true
	}
	return int64(u), i, true
}

// Int decodes a canonical integer that must fit Go's int.
func (d *Decoder) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.decline()
		return 0
	}
	return int(v)
}

// Strings decodes an array of strings.
func (d *Decoder) Strings() []string {
	if !d.array() {
		return nil
	}
	s := d.strs[:0]
	for d.elem(len(s)) {
		s = append(s, d.String())
	}
	d.strs = s
	out := make([]string, len(s))
	copy(out, s)
	clear(s)
	return out
}

var (
	tasksetKeys = []string{"tasks", "num_resources", "num_procs"}
	taskKeys    = []string{"id", "name", "period", "deadline", "priority", "vertices", "edges", "cslen"}
	vertexKeys  = []string{"id", "wcet", "requests"}
	edgeKeys    = []string{"from", "to"}
)

// Taskset decodes one taskset object (not finalized).
func (d *Decoder) Taskset() *Taskset {
	if !d.Object() {
		return nil
	}
	ts := new(Taskset)
	var seen uint32
	for {
		switch d.Field(tasksetKeys, &seen) {
		case 0:
			ts.Tasks = d.taskList()
		case 1:
			ts.NumResources = d.Int()
		case 2:
			ts.NumProcs = d.Int()
		default:
			return ts
		}
	}
}

func (d *Decoder) taskList() []*Task {
	if !d.array() {
		return nil
	}
	s := d.tasks[:0]
	for d.elem(len(s)) {
		s = append(s, d.task())
	}
	d.tasks = s
	out := make([]*Task, len(s))
	copy(out, s)
	clear(s)
	return out
}

func (d *Decoder) task() *Task {
	if !d.Object() {
		return nil
	}
	t := new(Task)
	var seen uint32
	for {
		switch d.Field(taskKeys, &seen) {
		case 0:
			t.ID = rt.TaskID(d.Int())
		case 1:
			t.Name = d.String()
		case 2:
			t.Period = d.Int64()
		case 3:
			t.Deadline = d.Int64()
		case 4:
			t.Priority = rt.Priority(d.Int())
		case 5:
			t.Vertices = d.vertexList()
		case 6:
			t.Edges = d.edgeList()
		case 7:
			t.CSLen = d.timeList()
		default:
			return t
		}
	}
}

// vertexList decodes a vertex array into one []Vertex slab per task and
// the pointer slice into it.
func (d *Decoder) vertexList() []*Vertex {
	if !d.array() {
		return nil
	}
	s := d.verts[:0]
	for d.elem(len(s)) {
		s = append(s, Vertex{})
		d.vertex(&s[len(s)-1])
	}
	d.verts = s
	slab := make([]Vertex, len(s))
	copy(slab, s)
	clear(s)
	out := make([]*Vertex, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

func (d *Decoder) vertex(v *Vertex) {
	if !d.Object() {
		return
	}
	var seen uint32
	for {
		switch d.Field(vertexKeys, &seen) {
		case 0:
			v.ID = rt.VertexID(d.Int())
		case 1:
			v.WCET = d.Int64()
		case 2:
			v.Requests = d.requests()
		default:
			return
		}
	}
}

// requests decodes a request map. Keys are canonical decimal strings;
// two keys naming the same resource decline.
func (d *Decoder) requests() map[rt.ResourceID]int {
	if d.Null() || !d.Object() {
		return nil
	}
	s := d.reqs[:0]
	for !d.bad {
		if d.peek() == '}' {
			d.i++
			break
		}
		if len(s) > 0 && !d.expect(',') {
			break
		}
		k := d.str()
		q, n, ok := parseInt(k)
		if !ok || n != len(k) || int64(int(q)) != q {
			d.decline()
			break
		}
		for _, r := range s {
			if r.q == rt.ResourceID(q) {
				d.decline()
			}
		}
		d.expect(':')
		s = append(s, request{rt.ResourceID(q), d.Int()})
	}
	d.reqs = s
	if d.bad {
		return nil
	}
	m := make(map[rt.ResourceID]int, len(s))
	for _, r := range s {
		m[r.q] = r.n
	}
	return m
}

func (d *Decoder) edgeList() []Edge {
	if !d.array() {
		return nil
	}
	s := d.edges[:0]
	for d.elem(len(s)) {
		var e Edge
		if d.Object() {
			var seen uint32
			for k := d.Field(edgeKeys, &seen); k >= 0; k = d.Field(edgeKeys, &seen) {
				if k == 0 {
					e.From = rt.VertexID(d.Int())
				} else {
					e.To = rt.VertexID(d.Int())
				}
			}
		}
		s = append(s, e)
	}
	d.edges = s
	out := make([]Edge, len(s))
	copy(out, s)
	return out
}

func (d *Decoder) timeList() []rt.Time {
	if !d.array() {
		return nil
	}
	s := d.times[:0]
	for d.elem(len(s)) {
		s = append(s, d.Int64())
	}
	d.times = s
	out := make([]rt.Time, len(s))
	copy(out, s)
	return out
}
