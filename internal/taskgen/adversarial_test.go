package taskgen

import (
	"math/rand"
	"testing"

	"dpcpp/internal/rt"
)

// TestAdversarialShapesValid draws tasksets of every shape and checks they
// finalize, respect the model's plausibility constraints (enforced by
// Finalize itself) and exhibit the structural property the shape promises.
func TestAdversarialShapesValid(t *testing.T) {
	a := NewAdversarial()
	for shape := range numShapes {
		built := 0
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(seed))
			ts, err := a.TasksetWithShape(r, shape)
			if err != nil {
				continue
			}
			built++
			if ts.NumProcs < 2 {
				t.Fatalf("%s seed %d: %d processors", shape, seed, ts.NumProcs)
			}
			for _, task := range ts.Tasks {
				if task.Deadline > task.Period {
					t.Errorf("%s seed %d: unconstrained deadline", shape, seed)
				}
				switch shape {
				case ShapeChain:
					// A chain's longest path carries the whole WCET.
					if task.LongestPath() != task.WCET() {
						t.Errorf("%s seed %d task %d: L*=%d != C=%d",
							shape, seed, task.ID, task.LongestPath(), task.WCET())
					}
				case ShapeSingleVertex:
					if len(task.Vertices) != 1 {
						t.Errorf("%s seed %d: %d vertices", shape, seed, len(task.Vertices))
					}
				case ShapeForkJoin:
					sources, sinks := 0, 0
					for x := range task.Vertices {
						if len(task.Pred(rt.VertexID(x))) == 0 {
							sources++
						}
						if len(task.Succ(rt.VertexID(x))) == 0 {
							sinks++
						}
					}
					if sources != 1 || sinks != 1 {
						t.Errorf("%s seed %d: fork-join needs single source/sink", shape, seed)
					}
				}
			}
		}
		if built == 0 {
			t.Errorf("%s: no taskset built in 30 seeds", shape)
		}
	}
}

// TestAdversarialDeterministic: the generator is a pure function of the
// RNG stream.
func TestAdversarialDeterministic(t *testing.T) {
	a := NewAdversarial()
	for seed := int64(0); seed < 10; seed++ {
		ts1, s1, err1 := a.Taskset(rand.New(rand.NewSource(seed)))
		ts2, s2, err2 := a.Taskset(rand.New(rand.NewSource(seed)))
		if (err1 == nil) != (err2 == nil) || s1 != s2 {
			t.Fatalf("seed %d: divergent outcomes", seed)
		}
		if err1 != nil {
			continue
		}
		if len(ts1.Tasks) != len(ts2.Tasks) || ts1.NumProcs != ts2.NumProcs {
			t.Fatalf("seed %d: divergent tasksets", seed)
		}
		for i := range ts1.Tasks {
			if ts1.Tasks[i].WCET() != ts2.Tasks[i].WCET() ||
				ts1.Tasks[i].Period != ts2.Tasks[i].Period {
				t.Fatalf("seed %d task %d: divergent parameters", seed, i)
			}
		}
	}
}

// TestAdversarialContentionPeriods: the contention shape's periods are
// near-harmonic — every period is within jitter of a power-of-two multiple
// of the shortest one.
func TestAdversarialContentionPeriods(t *testing.T) {
	a := NewAdversarial()
	checked := 0
	for seed := int64(0); seed < 40 && checked < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := a.TasksetWithShape(r, ShapeContention)
		if err != nil || len(ts.Tasks) < 2 {
			continue
		}
		checked++
		min := ts.Tasks[0].Period
		for _, task := range ts.Tasks {
			if task.Period < min {
				min = task.Period
			}
		}
		base := min - min%rt.Microsecond // strip ns jitter
		for _, task := range ts.Tasks {
			ratioed := false
			for shift := uint(0); shift <= 4; shift++ {
				mult := base << shift
				if task.Period >= mult && task.Period-mult < rt.Microsecond {
					ratioed = true
					break
				}
			}
			if !ratioed {
				t.Errorf("seed %d: period %s not near-harmonic over base %s",
					seed, rt.FormatTime(task.Period), rt.FormatTime(base))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no contention taskset with >= 2 tasks generated")
	}
}
