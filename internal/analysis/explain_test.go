package analysis

import (
	"strings"
	"testing"

	"dpcpp/internal/rt"
)

func TestExplainMatchesWCRTs(t *testing.T) {
	ts := handSet(t)
	res := Test(DPCPpEP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	a := NewDPCPp(ts, DefaultPathCap, false)
	breakdowns := a.Explain(res.Partition)
	if len(breakdowns) != 2 {
		t.Fatalf("got %d breakdowns", len(breakdowns))
	}
	for _, bd := range breakdowns {
		if bd.Total != res.WCRT[bd.TaskID] {
			t.Errorf("task %d: breakdown total %s != WCRT %s",
				bd.TaskID, rt.FormatTime(bd.Total), rt.FormatTime(res.WCRT[bd.TaskID]))
		}
	}
}

func TestExplainComponentsHandChecked(t *testing.T) {
	// The hand example: R_A = 19us = 10 (path) + 3 (inter-task, eps) +
	// 6 (agent interference: 2 jobs x 3us; m_i = 1).
	ts := handSet(t)
	res := Test(DPCPpEP, ts, Options{})
	a := NewDPCPp(ts, DefaultPathCap, false)
	bds := a.Explain(res.Partition)

	var bdA Breakdown
	for _, bd := range bds {
		if bd.TaskID == 0 {
			bdA = bd
		}
	}
	if bdA.PathLength != 10*rt.Microsecond {
		t.Errorf("PathLength = %s", rt.FormatTime(bdA.PathLength))
	}
	if bdA.InterTaskBlocking != 3*rt.Microsecond {
		t.Errorf("InterTaskBlocking = %s, want 3us", rt.FormatTime(bdA.InterTaskBlocking))
	}
	if bdA.AgentInterference != 6*rt.Microsecond {
		t.Errorf("AgentInterference = %s, want 6us", rt.FormatTime(bdA.AgentInterference))
	}
	if bdA.IntraTaskBlocking != 0 || bdA.IntraInterference != 0 {
		t.Errorf("intra terms = %s, %s; want 0, 0",
			rt.FormatTime(bdA.IntraTaskBlocking), rt.FormatTime(bdA.IntraInterference))
	}
	if bdA.Total != 19*rt.Microsecond {
		t.Errorf("Total = %s, want 19us", rt.FormatTime(bdA.Total))
	}
}

func TestExplainStringRendering(t *testing.T) {
	ts := handSet(t)
	res := Test(DPCPpEP, ts, Options{})
	a := NewDPCPp(ts, DefaultPathCap, false)
	for _, bd := range a.Explain(res.Partition) {
		s := bd.String()
		for _, want := range []string{"L(lambda)", "inter-task B", "total R"} {
			if !strings.Contains(s, want) {
				t.Errorf("breakdown string missing %q:\n%s", want, s)
			}
		}
	}
}
