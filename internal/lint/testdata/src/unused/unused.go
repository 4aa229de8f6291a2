// Package unused exercises the unused analyzer. Loaded on its own, it
// stands in for a whole module: it is the root package, so its exported
// API is a root and everything else must be referenced to survive.
package unused

import (
	"fmt"
	"strconv"
)

// Exported is root API; what it references is used.
func Exported() string {
	var s shape = square{2}
	return strconv.Itoa(helper()+first([]int{s.area()})) + table["c"]().String()
}

func helper() int { return 1 }

// first is generic: the instantiation in Exported counts for its origin.
func first[T any](xs []T) T { return xs[0] }

// table references newCounter as a value from a package-level variable.
var table = map[string]func() *counter{"c": newCounter}

func newCounter() *counter { return &counter{} }

func unreferenced() {} // want "unreferenced is not referenced by non-test code"

// countdown only calls itself, which is not a reference.
func countdown(n int) int { // want "countdown is not referenced by non-test code"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

type counter struct{ n int }

func (c *counter) bump() { c.n++ } // want "counter.bump is not referenced by non-test code"

// String and Error implement fmt.Stringer and error, so they are roots.
func (c *counter) String() string { return fmt.Sprint(c.n) }

func (c *counter) Error() string { return "counter " + c.String() }

// shape is a package-local interface: its implementations are roots.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// perimeter shares no interface with anything.
func (s square) perimeter() int { return 4 * s.side } // want "square.perimeter is not referenced by non-test code"

// String shares its name with fmt.Stringer's method, but not its
// signature: square implements no interface with it.
func (s square) String(unit string) string { return strconv.Itoa(s.side) + unit } // want "square.String is not referenced by non-test code"

// kept has a caller the load cannot see.
//
//schedlint:ignore unused called from a separate module
func kept() {}

func init() {}

func _() {}
