// Package splitmix is the repository's one SplitMix64 generator: tiny,
// seedable, and stable across Go versions (unlike math/rand), which every
// determinism contract built on it — byte-identical request streams, fuzz
// case digests, fault and chaos schedules, Juliet case shapes — depends on.
// It has no dependencies, so any package may use it.
package splitmix

// Golden is the SplitMix64 state increment, 2^64 divided by the golden ratio.
const Golden = 0x9e3779b97f4a7c15

// Mix returns the SplitMix64 output for state x: advance by Golden, then
// finalize. It is the next draw of a Rand whose state is x.
func Mix(x uint64) uint64 {
	x += Golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive returns an independent child seed of (seed, salt): the one-level
// seed tree that gives each client, case or stream its own generator.
func Derive(seed, salt uint64) uint64 { return Mix(seed ^ (salt+1)*Golden) }

// Rand is a SplitMix64 stream. State is its whole state, so a stream can be
// positioned directly (Rand{State: x}) and saved or restored by copying it.
type Rand struct{ State uint64 }

// New returns a stream seeded with seed; seed 0 is replaced by Golden so
// the zero seed does not start on the degenerate all-zero state.
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = Golden
	}
	return &Rand{State: seed}
}

// Next advances the stream and returns its next 64-bit draw.
func (r *Rand) Next() uint64 {
	out := Mix(r.State)
	r.State += Golden
	return out
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// RangeIn returns a value in [lo, hi] inclusive.
func (r *Rand) RangeIn(lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// Chance returns true with probability num/den.
func (r *Rand) Chance(num, den int) bool { return r.Intn(den) < num }

// Float returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *Rand) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }
