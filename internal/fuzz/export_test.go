package fuzz

import (
	"testing"

	"cecsan/prog"
)

// ModeCorpusPrograms returns modeCorpus's programs, for the external
// identity test.
func ModeCorpusPrograms(t *testing.T) []*prog.Program {
	var progs []*prog.Program
	for _, c := range modeCorpus(t) {
		progs = append(progs, c.p)
	}
	return progs
}
