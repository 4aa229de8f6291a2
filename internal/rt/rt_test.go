package rt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 1, 0},
		{1, 1, 1},
		{1, 2, 1},
		{2, 2, 1},
		{3, 2, 2},
		{10, 3, 4},
		{9, 3, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(-1, 2) did not panic")
		}
	}()
	CeilDiv(-1, 2)
}

func TestSatAddSaturates(t *testing.T) {
	if got := SatAdd(Infinity, 1); got != Infinity {
		t.Errorf("SatAdd(Infinity,1) = %d", got)
	}
	if got := SatAdd(Infinity-1, 5); got != Infinity {
		t.Errorf("SatAdd(near-Infinity,5) = %d", got)
	}
	if got := SatAdd(2, 3); got != 5 {
		t.Errorf("SatAdd(2,3) = %d", got)
	}
}

func TestSatMulSaturates(t *testing.T) {
	if got := SatMul(Infinity, 2); got != Infinity {
		t.Errorf("SatMul(Infinity,2) = %d", got)
	}
	if got := SatMul(0, Infinity); got != 0 {
		t.Errorf("SatMul(0,Infinity) = %d", got)
	}
	if got := SatMul(7, 6); got != 42 {
		t.Errorf("SatMul(7,6) = %d", got)
	}
}

// refSatMul is the division-guarded SatMul the division-free version
// replaced; the differential tests below pin the two to identical results
// on every operand pair, negative operands included.
func refSatMul(a, b Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= Infinity || b >= Infinity || a > Infinity/b {
		return Infinity
	}
	return a * b
}

func TestSatMulMatchesDivisionReference(t *testing.T) {
	edges := []Time{
		0, 1, 2, 3, 7, 1000, Microsecond, Second,
		Infinity / 3, Infinity/3 + 1, Infinity / 2, Infinity/2 + 1,
		Infinity - 1, Infinity, Infinity + 1, math.MaxInt64 - 1, math.MaxInt64,
		-1, -2, -1000, -Infinity, math.MinInt64 + 1, math.MinInt64,
		1 << 30, 1<<30 + 1, 1 << 31, 1 << 32, 3037000499, 3037000500,
	}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := SatMul(a, b), refSatMul(a, b); got != want {
				t.Errorf("SatMul(%d, %d) = %d, reference %d", a, b, got, want)
			}
		}
	}
	// Infinity = 2^61-1 is prime, so 1*Infinity is the only product landing
	// exactly on it; the largest products below it must not saturate.
	for _, c := range []struct{ a, b, want Time }{
		{1, Infinity, Infinity},
		{Infinity, 1, Infinity},
		{Infinity / 7, 7, Infinity / 7 * 7},
		{Infinity/7 + 1, 7, Infinity},
		{1 << 30, 1 << 30, 1 << 60},
		{1 << 31, 1 << 30, Infinity},
	} {
		if got := SatMul(c.a, c.b); got != c.want {
			t.Errorf("SatMul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func FuzzSatMul(f *testing.F) {
	for _, c := range [][2]int64{
		{0, 0}, {1, Infinity}, {Infinity, 1}, {Infinity - 1, 2}, {Infinity / 3, 3},
		{math.MaxInt64, 1}, {-1, 5}, {5, -1}, {-3, -3}, {math.MinInt64, 2},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b int64) {
		got, want := SatMul(a, b), refSatMul(a, b)
		if got != want {
			t.Fatalf("SatMul(%d, %d) = %d, reference %d", a, b, got, want)
		}
		if a >= 0 && b >= 0 && (got < 0 || got > Infinity) {
			t.Fatalf("SatMul(%d, %d) = %d escapes [0, Infinity]", a, b, got)
		}
	})
}

func TestSatOpsNeverExceedInfinity(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Time(a)*Microsecond, Time(b)*Microsecond
		return SatAdd(x, y) <= Infinity && SatMul(x, y) <= Infinity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivIsCeiling(t *testing.T) {
	f := func(a uint16, b uint16) bool {
		x, y := Time(a), Time(b%1000+1)
		got := CeilDiv(x, y)
		return got*y >= x && (got-1)*y < x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPriorityHigher(t *testing.T) {
	if !Priority(5).Higher(3) {
		t.Error("Priority(5).Higher(3) = false")
	}
	if Priority(3).Higher(5) {
		t.Error("Priority(3).Higher(5) = true")
	}
	if Priority(3).Higher(3) {
		t.Error("Priority(3).Higher(3) = true")
	}
}

func TestFormatTime(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{Infinity, "inf"},
		{2 * Second, "2s"},
		{5 * Millisecond, "5ms"},
		{15 * Microsecond, "15us"},
		{123, "123ns"},
		{1500, "1500ns"},
	}
	for _, c := range cases {
		if got := FormatTime(c.in); got != c.want {
			t.Errorf("FormatTime(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
