package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"time"

	"cecsan/internal/checkpoint"
	"cecsan/internal/sanitizers"
	"cecsan/internal/splitmix"
	"cecsan/prog"
)

// Request is one generated unit of traffic: a program to run under a
// sanitizer profile, stamped with its virtual arrival time, class and
// deadline. Requests carry everything a worker needs, so consumers can
// fan them out freely without touching generator state.
type Request struct {
	// Index is the request's position in the merged stream (0-based).
	Index int
	// Class is the client class ID from the spec.
	Class string
	// ClassIndex is the class's position in spec order.
	ClassIndex int
	// Tool is the sanitizer profile to run under.
	Tool sanitizers.Name
	// Arrival is the request's virtual arrival offset from campaign start.
	Arrival time.Duration
	// Deadline is the class latency SLO (0 = none).
	Deadline time.Duration
	// Variant is which of the class's program variants this request uses.
	Variant int
	// ProgSeed is the variant's generator seed.
	ProgSeed uint64
	// Program is the compiled program (shared across requests of the same
	// variant; programs are immutable once built).
	Program *prog.Program
	// Inputs are the recv payloads, if the variant consumes any.
	Inputs [][]byte
	// Source is the variant's csrc source.
	Source string
}

// Stream generates the merged request stream for a (spec, seed) pair.
//
// Determinism contract: the stream is a pure function of the spec content
// and the seed. Each client owns three independent splitmix64 streams
// derived from splitmix.Derive(spec seed, client index) — arrivals, variant picks and
// variant program seeds — and the per-client streams are merged by
// (virtual arrival time, spec order) with spec order breaking ties.
// Nothing consults wall clocks, worker counts or map iteration order, so
// two Streams with the same inputs yield byte-identical request sequences
// no matter how the consumer schedules them.
type Stream struct {
	spec  *Spec
	limit int
	count int

	clients []*clientState
	digest  hashState
}

// hashState accumulates the canonical per-request records that define
// stream identity (written by step).
type hashState struct {
	h   hash.Hash
	rec []byte // record buffer, reused across requests
}

// record hashes one request's canonical record, the line
// "count|class|arrival_ns|deadline_ns|tool|variant|seed|fingerprint\n"
// with decimal integers and a lowercase-hex fingerprint.
func (d *hashState) record(count int, class string, arrival, deadline time.Duration, tool string, vi int, seed uint64, fp prog.Fingerprint) {
	b := strconv.AppendInt(d.rec[:0], int64(count), 10)
	b = append(append(b, '|'), class...)
	b = strconv.AppendInt(append(b, '|'), arrival.Nanoseconds(), 10)
	b = strconv.AppendInt(append(b, '|'), deadline.Nanoseconds(), 10)
	b = append(append(b, '|'), tool...)
	b = strconv.AppendInt(append(b, '|'), int64(vi), 10)
	b = strconv.AppendUint(append(b, '|'), seed, 10)
	b = hex.AppendEncode(append(b, '|'), fp[:])
	b = append(b, '\n')
	d.h.Write(b)
	d.rec = b
}

// clientState is one client's generator position in the merge.
type clientState struct {
	spec     *ClientSpec
	index    int
	arrivals *arrivalSampler
	picker   *splitmix.Rand
	variants []*Variant
	nextAt   time.Duration
}

// NewStream builds the generator. seedOverride, when nonzero, replaces
// the spec's seed (the cmd/serve -seed flag). Variant programs for every
// class are compiled up front; the error covers generator bugs only, not
// request execution.
func NewStream(spec *Spec, seedOverride uint64) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seedOverride != 0 {
		seed = seedOverride
	}
	s := &Stream{spec: spec, limit: spec.MaxRequests, digest: hashState{h: sha256.New()}}
	for i := range spec.Clients {
		c := &spec.Clients[i]
		clientSeed := splitmix.Derive(seed, uint64(i)+1)
		cs := &clientState{
			spec:     c,
			index:    i,
			arrivals: newArrivalSampler(c.Arrival, spec.AggregateRate*c.RateFraction, splitmix.Derive(clientSeed, 1)),
			picker:   splitmix.New(splitmix.Derive(clientSeed, 2)),
		}
		for j := 0; j < c.Program.Variants; j++ {
			v, err := buildVariant(c.Program.Kind, splitmix.Derive(clientSeed, 3+uint64(j)))
			if err != nil {
				return nil, err
			}
			cs.variants = append(cs.variants, v)
		}
		cs.nextAt = cs.arrivals.next()
		s.clients = append(s.clients, cs)
	}
	return s, nil
}

// SetLimit overrides the spec's max_requests bound (0 = unbounded).
func (s *Stream) SetLimit(n int) { s.limit = n }

// Variants returns the compiled variant programs for class i, for
// engine warmup via Preinstrument.
func (s *Stream) Variants(i int) []*Variant { return s.clients[i].variants }

// Next returns the next request in virtual-time order, or nil when the
// stream's request bound is reached. Single-producer by design: the
// merge is a stateful k-way walk.
func (s *Stream) Next() *Request {
	if s.limit > 0 && s.count >= s.limit {
		return nil
	}
	index := s.count
	cs, vi, arrival := s.step()
	v := cs.variants[vi]
	return &Request{
		Index:      index,
		Class:      cs.spec.ID,
		ClassIndex: cs.index,
		Tool:       sanitizers.Name(cs.spec.Tool),
		Arrival:    arrival,
		Deadline:   time.Duration(cs.spec.DeadlineMS * float64(time.Millisecond)),
		Variant:    vi,
		ProgSeed:   v.Seed,
		Program:    v.Program,
		Inputs:     v.Inputs,
		Source:     v.Source,
	}
}

// Seek fast-forwards the generator past the next n requests without
// materializing them: every RNG draw, arrival advance and digest record
// happens exactly as in Next, so a seeked stream is indistinguishable
// from one that generated and discarded n requests. Returns how many
// requests were actually skipped (less than n when the stream's bound
// intervenes).
func (s *Stream) Seek(n int) int {
	skipped := 0
	for skipped < n {
		if s.limit > 0 && s.count >= s.limit {
			break
		}
		s.step()
		skipped++
	}
	return skipped
}

// step advances the merge by one request — picks the earliest client
// (spec order breaks ties), draws its variant, folds the canonical record
// into the running digest, and schedules the client's next arrival. The
// single mutation point shared by Next and Seek.
func (s *Stream) step() (cs *clientState, vi int, arrival time.Duration) {
	best := -1
	for i, c := range s.clients {
		if best < 0 || c.nextAt < s.clients[best].nextAt {
			best = i
		}
	}
	cs = s.clients[best]
	vi = cs.picker.Intn(len(cs.variants))
	v := cs.variants[vi]
	arrival = cs.nextAt
	deadline := time.Duration(cs.spec.DeadlineMS * float64(time.Millisecond))
	s.digest.record(s.count, cs.spec.ID, arrival, deadline, cs.spec.Tool, vi, v.Seed, v.Program.Fingerprint())
	cs.nextAt += cs.arrivals.next()
	s.count++
	return cs, vi, arrival
}

// Count returns how many requests have been generated so far.
func (s *Stream) Count() int { return s.count }

// Digest returns the hex SHA-256 over the canonical records of every
// request generated so far — the byte-determinism witness two runs (or
// two worker counts) can compare.
func (s *Stream) Digest() string {
	return hex.EncodeToString(s.digest.h.Sum(nil))
}

// StreamState is the generator's full serializable position: the merged
// count, the running digest's internal state, and each client's RNG
// cursors. Restoring it into a fresh Stream over the same (spec, seed)
// resumes generation exactly where the capture left off — byte-identical
// requests and final digest.
type StreamState struct {
	Count   int                 `json:"count"`
	Digest  []byte              `json:"digest"`
	Clients []ClientStreamState `json:"clients"`
}

// ClientStreamState is one client's generator cursor within the merge.
type ClientStreamState struct {
	ArrivalRNG uint64        `json:"arrival_rng"`
	PickerRNG  uint64        `json:"picker_rng"`
	NextAt     time.Duration `json:"next_at_ns"`
}

// State captures the generator's position. Callers must not interleave
// State with concurrent Next/Seek calls (the stream is single-producer).
func (s *Stream) State() (*StreamState, error) {
	d, err := checkpoint.MarshalHash(s.digest.h)
	if err != nil {
		return nil, err
	}
	st := &StreamState{Count: s.count, Digest: d}
	for _, cs := range s.clients {
		st.Clients = append(st.Clients, ClientStreamState{
			ArrivalRNG: cs.arrivals.r.State,
			PickerRNG:  cs.picker.State,
			NextAt:     cs.nextAt,
		})
	}
	return st, nil
}

// Restore rewinds this stream to a previously captured position. The
// stream must have been built from the same (spec, seed) pair — variant
// programs are deterministic in those, so only the cursors and digest
// state need reloading. Client-count mismatch (a different spec) fails.
func (s *Stream) Restore(st *StreamState) error {
	if len(st.Clients) != len(s.clients) {
		return fmt.Errorf("traffic: stream state has %d clients, spec has %d", len(st.Clients), len(s.clients))
	}
	if err := checkpoint.UnmarshalHash(s.digest.h, st.Digest); err != nil {
		return err
	}
	s.count = st.Count
	for i, c := range st.Clients {
		cs := s.clients[i]
		cs.arrivals.r.State = c.ArrivalRNG
		cs.picker.State = c.PickerRNG
		cs.nextAt = c.NextAt
	}
	return nil
}
