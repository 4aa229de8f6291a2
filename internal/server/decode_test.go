package server

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// canonicalAnalyzeBody is a small body inside the decoder's subset that
// sets every envelope field and every taskset field.
const canonicalAnalyzeBody = `{"taskset":{"tasks":[{"id":0,"name":"t0","period":1000,"deadline":900,"priority":2,` +
	`"vertices":[{"id":0,"wcet":100,"requests":{"0":1}},{"id":1,"wcet":50}],"edges":[{"from":0,"to":1}],"cslen":[10]},` +
	`{"id":1,"period":2000,"deadline":2000,"priority":1,"vertices":[{"id":0,"wcet":-7,"requests":{}}],"edges":[],"cslen":[]}],` +
	`"num_resources":1,"num_procs":2},"methods":["DPCP-p-EP","LPP"],"path_cap":5,"placement":"wfd","explain":true,"timeout_ms":100}`

// hostileAnalyzeBodies are single edits of canonicalAnalyzeBody that
// leave the decoder's subset. encoding/json accepts some of them (case
// folding, escapes, duplicate keys, "+1" map keys, -0) and rejects the
// rest; either way the decoder must decline and leave the verdict to it.
func hostileAnalyzeBodies() map[string]string {
	edit := func(old, new string) string {
		if !strings.Contains(canonicalAnalyzeBody, old) {
			panic("hostile edit does not apply: " + old)
		}
		return strings.Replace(canonicalAnalyzeBody, old, new, 1)
	}
	return map[string]string{
		"upper-case key":           edit(`"wcet":100`, `"WCET":100`),
		"long-s key":               edit(`"num_resources"`, `"num_reſources"`),
		"kelvin key":               edit(`"tasks"`, "\"tas\u212As\""), // U+212A KELVIN SIGN folds to k
		"escaped key":              edit(`"wcet":100`, `"w\u0063et":100`),
		"escaped value":            edit(`"wfd"`, `"w\u0066d"`),
		"non-ascii value":          edit(`"t0"`, `"tö"`),
		"duplicate envelope key":   edit(`"path_cap":5`, `"path_cap":5,"path_cap":6`),
		"duplicate task key":       edit(`"wcet":100`, `"wcet":100,"wcet":200`),
		"duplicate request key":    edit(`{"0":1}`, `{"0":1,"0":2}`),
		"aliased request key":      edit(`{"0":1}`, `{"0":1,"00":2}`),
		"plus request key":         edit(`{"0":1}`, `{"+1":1}`),
		"null vertex":              edit(`{"id":1,"wcet":50}`, `null`),
		"null task":                edit(`{"id":1,"period":2000`, `null,{"id":1,"period":2000`),
		"null int":                 edit(`"wcet":100`, `"wcet":null`),
		"null string":              edit(`"placement":"wfd"`, `"placement":null`),
		"null bool":                edit(`"explain":true`, `"explain":null`),
		"null envelope":            `null`,
		"misspelled null":          edit(`"edges":[]`, `"edges":nul`),
		"fraction":                 edit(`"wcet":100`, `"wcet":1.0`),
		"exponent":                 edit(`"wcet":100`, `"wcet":1e3`),
		"negative zero":            edit(`"wcet":100`, `"wcet":-0`),
		"leading zero":             edit(`"wcet":100`, `"wcet":01`),
		"int64 overflow":           edit(`"wcet":100`, `"wcet":9223372036854775808`),
		"int64 underflow":          edit(`"wcet":100`, `"wcet":-9223372036854775809`),
		"string number":            edit(`"wcet":100`, `"wcet":"100"`),
		"unknown envelope field":   edit(`"explain":true`, `"explain":true,"bogus":1`),
		"unknown nested field":     edit(`{"id":1,"wcet":50}`, `{"id":1,"wcet":50,"bogus":1}`),
		"unknown edge field":       edit(`{"from":0,"to":1}`, `{"from":0,"to":1,"w":1}`),
		"trailing brace":           canonicalAnalyzeBody + `}`,
		"trailing bracket":         canonicalAnalyzeBody + `]`,
		"trailing document":        canonicalAnalyzeBody + `{}`,
		"trailing NUL":             canonicalAnalyzeBody + "\x00",
		"trailing NUL and garbage": canonicalAnalyzeBody + "\x00}]x",
		"trailing comma":           edit(`"timeout_ms":100}`, `"timeout_ms":100,}`),
		"truncated":                canonicalAnalyzeBody[:len(canonicalAnalyzeBody)/2],
		"capitalized true":         edit(`"explain":true`, `"explain":True`),
		"bool for int":             edit(`"path_cap":5`, `"path_cap":true`),
		"array for object":         edit(`"requests":{"0":1}`, `"requests":[1]`),
		"top-level array":          `[` + canonicalAnalyzeBody + `]`,
		"empty body":               ``,
		"whitespace-only body":     " \n\t",
		"comment-like garbage":     `{"taskset":/*x*/{}}`,
		"unterminated string":      `{"placement":"wfd`,
		"control char in string":   edit(`"t0"`, "\"t\x010\""),
		"byte order mark":          "\xef\xbb\xbf" + canonicalAnalyzeBody,
		"non-json whitespace":      edit(`"path_cap":5`, "\"path_cap\":\v5"),
		"map key out of int range": edit(`{"0":1}`, `{"9223372036854775808":1}`),
	}
}

// nullAnalyzeBodies are edits of canonicalAnalyzeBody that put null where
// encoding/json decodes it as nil (slice, map and pointer fields), which
// the decoder accepts.
func nullAnalyzeBodies() map[string]string {
	edit := func(old, new string) string {
		if !strings.Contains(canonicalAnalyzeBody, old) {
			panic("null edit does not apply: " + old)
		}
		return strings.Replace(canonicalAnalyzeBody, old, new, 1)
	}
	return map[string]string{
		"null taskset":  `{"taskset":null}`,
		"null tasks":    `{"taskset":{"tasks":null,"num_resources":0,"num_procs":1}}`,
		"null vertices": edit(`"vertices":[{"id":0,"wcet":-7,"requests":{}}]`, `"vertices":null`),
		"null edges":    edit(`"edges":[]`, `"edges":null`),
		"null cslen":    edit(`"cslen":[]`, `"cslen":null`),
		"null requests": edit(`"requests":{}`, `"requests":null`),
		"null methods":  edit(`["DPCP-p-EP","LPP"]`, `null`),
	}
}

// referenceDecode is the encoding/json path decodeAnalyze must agree
// with: DisallowUnknownFields and a single document.
func referenceDecode(body []byte) (*AnalyzeRequest, error) {
	req := new(AnalyzeRequest)
	return req, decodeStrict(bytes.NewReader(body), req)
}

// analyzeSeeds returns the bodies FuzzAnalyzeBody starts from: the schedd
// fixtures, the model fuzz corpus wrapped in an envelope, generated
// Fig. 2(a)/(c) admission bodies, and the hostile variants.
func analyzeSeeds(t testing.TB) [][]byte {
	t.Helper()
	seeds := [][]byte{[]byte(canonicalAnalyzeBody)}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	envelope := func(ts []byte) []byte {
		return append(append([]byte(`{"taskset":`), bytes.TrimSpace(ts)...), '}')
	}
	seeds = append(seeds,
		read("../../cmd/schedd/testdata/fig2a_request.json"),
		envelope(read("../../cmd/schedd/testdata/delta_base_taskset.json")))
	corpus, err := filepath.Glob("../model/testdata/fuzz/FuzzTasksetJSON/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("model fuzz corpus: %v (%d files)", err, len(corpus))
	}
	for _, path := range corpus {
		// "go test fuzz v1" files hold one []byte("...") line per value.
		_, line, _ := strings.Cut(string(read(path)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "[]byte("), ")")
		ts, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seeds = append(seeds, envelope([]byte(ts)))
	}
	for i := 0; i < 4; i++ {
		seeds = append(seeds, admitBody(t, i))
	}
	for _, set := range []map[string]string{nullAnalyzeBodies(), hostileAnalyzeBodies()} {
		for _, name := range slices.Sorted(maps.Keys(set)) {
			seeds = append(seeds, []byte(set[name]))
		}
	}
	return seeds
}

// FuzzAnalyzeBody is the differential oracle of the single-pass decoder:
// for every input, decodeAnalyze either declines or returns a request
// reflect.DeepEqual to what encoding/json with DisallowUnknownFields
// decodes from the same bytes.
func FuzzAnalyzeBody(f *testing.F) {
	for _, seed := range analyzeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeAnalyze(body)
		if !ok {
			return
		}
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatalf("decoder accepted a body encoding/json rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree on %q:\nfast: %+v\njson: %+v", body, got, want)
		}
	})
}

// TestDecodeAnalyzeAcceptsCanonical keeps the oracle from passing
// vacuously: the bodies clients and the fixtures actually send must take
// the fast path.
func TestDecodeAnalyzeAcceptsCanonical(t *testing.T) {
	bodies := [][]byte{[]byte(canonicalAnalyzeBody),
		[]byte(" \n" + canonicalAnalyzeBody + "\r\n\t")}
	seeds := analyzeSeeds(t)
	bodies = append(bodies, seeds[1], seeds[2]) // the schedd fixtures
	for _, body := range nullAnalyzeBodies() {
		bodies = append(bodies, []byte(body))
	}
	for i := 0; i < 4; i++ {
		bodies = append(bodies, admitBody(t, i))
	}
	for i, body := range bodies {
		got, ok := decodeAnalyze(body)
		if !ok {
			t.Fatalf("body %d declined: %.120q", i, body)
		}
		want, err := referenceDecode(body)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: decoders disagree (reference error %v)", i, err)
		}
	}
}

// TestDecodeAnalyzeDeclinesHostile pins the decline side of the rule:
// every non-canonical spelling falls back to encoding/json.
func TestDecodeAnalyzeDeclinesHostile(t *testing.T) {
	for name, body := range hostileAnalyzeBodies() {
		if _, ok := decodeAnalyze([]byte(body)); ok {
			t.Errorf("%s: decoder accepted %q", name, body)
		}
	}
}

// TestDecodeAnalyzeAllocs pins the decoder to allocating only what it
// returns, each slice at its final length: the request, the taskset, the
// task slice and, per task, the Task, one vertex slab plus its pointer
// slice, the edges, the CS lengths and each request map (a map of one to
// eight entries costs two allocations).
func TestDecodeAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled Decoder")
	}
	body := admitBody(t, 0) // a Fig. 2(a) taskset
	req, ok := decodeAnalyze(body)
	if !ok {
		t.Fatal("fig2a body declined")
	}
	want := 3
	for _, task := range req.Taskset.Tasks {
		want += 3 // Task, vertex slab, vertex pointers
		if len(task.Edges) > 0 {
			want++
		}
		if len(task.CSLen) > 0 {
			want++
		}
		if task.Name != "" {
			want++
		}
		for _, v := range task.Vertices {
			switch n := len(v.Requests); {
			case v.Requests == nil:
			case n > 8:
				t.Fatalf("vertex with %d requests: extend the map cost model", n)
			case n > 0:
				want += 2
			default:
				want++
			}
		}
	}
	got := testing.AllocsPerRun(20, func() { decodeAnalyze(body) })
	if got != float64(want) {
		t.Fatalf("decodeAnalyze allocates %.0f times per fig2a body, want %d (what it returns)", got, want)
	}
}

// TestReadBodyTracksBytesNotHeader: the Content-Length header is the
// client's claim, so a header-only request declaring the full body cap
// must not make readBody allocate that much up front, and a body longer
// than the presize still arrives whole.
func TestReadBodyTracksBytesNotHeader(t *testing.T) {
	const limit = DefaultMaxBody
	read := func(body []byte, declared int64) ([]byte, uint64) {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		r.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bp, err := readBody(r, limit)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := bytes.Clone(*bp)
		putBody(bp)
		return got, after.TotalAlloc - before.TotalAlloc
	}

	short := []byte(canonicalAnalyzeBody)
	got, alloc := read(short, limit)
	if !bytes.Equal(got, short) {
		t.Fatalf("short body read as %q", got)
	}
	if alloc > 1<<20 {
		t.Fatalf("a %d-byte body declaring Content-Length %d allocated %d bytes", len(short), limit, alloc)
	}

	long := bytes.Repeat([]byte{' '}, 3*maxBodyPresize+17)
	for _, declared := range []int64{int64(len(long)), -1} {
		if got, _ := read(long, declared); !bytes.Equal(got, long) {
			t.Fatalf("Content-Length %d: read %d of %d bytes", declared, len(got), len(long))
		}
	}
}
