// Package exporttest is a d2xvet loader fixture: its external test
// package reads an unexported constant through export_test.go.
package exporttest

const answer = 42

// Answer returns the constant.
func Answer() int { return answer }
