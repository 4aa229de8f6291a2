// Package directives exercises //schedlint: grammar validation: every
// comment below is malformed and must surface as a finding of the
// pseudo-analyzer "schedlint".
package directives

//schedlint:hotpath
var notAFunc = 1

func MisplacedDeterministic() int {
	//schedlint:deterministic
	return notAFunc
}

//schedlint:ignore bogus not a real analyzer
var unknownAnalyzer = 2

//schedlint:ignore hotpath
var missingReason = 3

//schedlint:frobnicate
var unknownDirective = 4
