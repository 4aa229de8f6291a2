package sim

import (
	"fmt"
	"strings"

	"dpcpp/internal/rt"
)

// Gantt renders the recorded trace as an ASCII chart, one row per
// processor, one column per bucket of the given width. Agents render as
// 'A', critical sections as '#', non-critical execution as '=', idle as
// '.'. It is the textual counterpart of the paper's Fig. 1(b).
func Gantt(spans []Span, numProcs int, horizon, bucket rt.Time) string {
	if bucket <= 0 || horizon <= 0 {
		return ""
	}
	cols := int(rt.CeilDiv(horizon, bucket))
	rows := make([][]byte, numProcs)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	for _, sp := range spans {
		if int(sp.Proc) >= numProcs || sp.To < 0 {
			continue
		}
		from := int(sp.From / bucket)
		to := int(rt.CeilDiv(sp.To, bucket))
		if to > cols {
			to = cols
		}
		ch := byte('=')
		if sp.Agent {
			ch = 'A'
		} else if sp.IsCS {
			ch = '#'
		}
		for c := from; c < to; c++ {
			rows[sp.Proc][c] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %s, bucket %s\n", rt.FormatTime(horizon), rt.FormatTime(bucket))
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-3d |%s|\n", i, row)
	}
	b.WriteString("legend: '=' non-critical  '#' local CS  'A' agent (global CS)  '.' idle\n")
	return b.String()
}
