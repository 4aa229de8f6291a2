package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// fullPath hides DPCPp's WCRTsUntilMiss, so Algorithm1 analyzes every task
// in every round: the reference the early exit must reproduce.
type fullPath struct{ a *DPCPp }

func (f fullPath) WCRTs(p *partition.Partition) map[rt.TaskID]rt.Time { return f.a.WCRTs(p) }

type labeledSet struct {
	label string
	ts    *model.Taskset
}

// earlyExitCorpus gathers the epequiv corpus (sparse IDs included), every
// adversarial audit shape, and one generated Fig. 2(a-d) taskset at every
// utilization point.
func earlyExitCorpus(t *testing.T) []labeledSet {
	t.Helper()
	var out []labeledSet
	for i, ts := range equivalenceCorpus(t) {
		out = append(out, labeledSet{fmt.Sprintf("epequiv/%d", i), ts})
	}
	adv := taskgen.NewAdversarial()
	for shape := taskgen.ShapeChain; shape <= taskgen.ShapeContention; shape++ {
		for seed := int64(0); seed < 12; seed++ {
			ts, err := adv.TasksetWithShape(rand.New(rand.NewSource(seed)), shape)
			if err != nil {
				continue
			}
			out = append(out, labeledSet{fmt.Sprintf("%s/%d", shape, seed), ts})
		}
	}
	for _, sub := range []string{"2a", "2b", "2c", "2d"} {
		scen, err := taskgen.Fig2Scenario(sub)
		if err != nil {
			t.Fatal(err)
		}
		scen = scen.DefaultStructure()
		g := taskgen.NewGenerator(scen)
		for pi, util := range taskgen.UtilizationPoints(scen.M) {
			for attempt := int64(0); attempt < 16; attempt++ {
				ts, err := g.Taskset(rand.New(rand.NewSource(int64(pi)*101+attempt)), util)
				if err == nil {
					out = append(out, labeledSet{fmt.Sprintf("fig%s/u=%.1f", sub, util), ts})
					break
				}
			}
		}
	}
	return out
}

// TestEarlyExitMatchesFullPath is the differential oracle of the early
// exit: Algorithm 1 with rounds cut at their first miss returns the full
// path's verdict, rounds, reason, final partition and final WCRT map, and
// the verdict-only path its verdict and rounds.
func TestEarlyExitMatchesFullPath(t *testing.T) {
	corpus := earlyExitCorpus(t)
	fullSc, earlySc, verdictSc := NewScratch(), NewScratch(), NewScratch()
	var multiRound, cut int
	for _, m := range []Method{DPCPpEP, DPCPpEN} {
		for _, c := range corpus {
			ts := c.ts
			full := partition.Algorithm1(ts,
				fullPath{newDPCPp(fullSc, ts, DefaultPathCap, m == DPCPpEN)}, partition.WFD)
			early := TestWith(earlySc, m, ts, Options{})
			verdict := test(verdictSc, m, ts, Options{}, true)
			name := string(m) + " " + c.label

			if early.Schedulable != full.Schedulable || early.Rounds != full.Rounds || early.Reason != full.Reason {
				t.Errorf("%s: early (%v, %d rounds, %q) != full (%v, %d rounds, %q)", name,
					early.Schedulable, early.Rounds, early.Reason, full.Schedulable, full.Rounds, full.Reason)
			}
			if !early.Partition.EqualAssignment(full.Partition) {
				t.Errorf("%s: final partitions differ", name)
			}
			if !reflect.DeepEqual(early.WCRT, full.WCRT) {
				t.Errorf("%s: final WCRTs differ:\n early: %v\n full:  %v", name, early.WCRT, full.WCRT)
			}
			if verdict.Schedulable != full.Schedulable || verdict.Rounds != full.Rounds {
				t.Errorf("%s: verdict-only (%v, %d rounds) != full (%v, %d rounds)", name,
					verdict.Schedulable, verdict.Rounds, full.Schedulable, full.Rounds)
			}
			if full.Rounds > 1 {
				multiRound++
			}
			if len(verdict.WCRT) < len(full.WCRT) {
				cut++
			}
		}
	}
	// The corpus must exercise what the early exit skips: augmentation
	// rounds, and final rounds whose miss leaves lower-priority tasks out.
	t.Logf("%d runs: %d multi-round, %d with a cut final round", 2*len(corpus), multiRound, cut)
	if multiRound == 0 || cut == 0 {
		t.Fatalf("corpus too easy: %d multi-round runs, %d cut final rounds", multiRound, cut)
	}
}

// untilMissCheck runs the full pass for Algorithm1 and, on the same
// partition, checks WCRTsUntilMiss of a second analyzer against it: the
// same bound for every task it returns, every task up to the first miss,
// and nothing after it.
type untilMissCheck struct {
	t           *testing.T
	name        string
	full, early *DPCPp
	misses      int
}

func (c *untilMissCheck) WCRTs(p *partition.Partition) map[rt.TaskID]rt.Time {
	want := c.full.WCRTs(p)
	got := c.early.WCRTsUntilMiss(p)
	missed := false
	for _, task := range c.full.byPrio {
		r, ok := got[task.ID]
		switch {
		case missed && ok:
			c.t.Errorf("%s: task %d has a bound after the first miss", c.name, task.ID)
		case missed:
		case !ok:
			c.t.Errorf("%s: task %d has no bound before the first miss", c.name, task.ID)
		case r != want[task.ID]:
			c.t.Errorf("%s: task %d bound %v, WCRTs %v", c.name, task.ID, r, want[task.ID])
		case r > task.Deadline:
			missed = true
			c.misses++
		}
	}
	return want
}

// TestWCRTsUntilMissIsPrefixOfWCRTs checks the early-exit pass round by
// round over every partition Algorithm 1 visits on the corpus.
func TestWCRTsUntilMissIsPrefixOfWCRTs(t *testing.T) {
	misses := 0
	for _, c := range earlyExitCorpus(t) {
		for _, en := range []bool{false, true} {
			chk := &untilMissCheck{t: t, name: fmt.Sprintf("%s en=%v", c.label, en),
				full:  NewDPCPp(c.ts, DefaultPathCap, en),
				early: NewDPCPp(c.ts, DefaultPathCap, en)}
			partition.Algorithm1(c.ts, chk, partition.WFD)
			misses += chk.misses
		}
	}
	if misses == 0 {
		t.Fatal("no round of the corpus missed a deadline")
	}
}
