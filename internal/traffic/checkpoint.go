package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cecsan/internal/checkpoint"
	"cecsan/internal/obs"
)

// ServeCheckpoint is one serve campaign's serializable mid-run state — the
// consistent cut the checkpoint barrier captures. At capture time no
// request is in flight (everything admitted is terminally accounted), so
// the snapshot plus the (spec, seed, chaos seed) triple fully determines
// the rest of the campaign: a resumed run generates the identical request
// stream, walks identical breaker/ladder transitions, and lands on final
// digests byte-identical to an uninterrupted run.
//
// Wall-clock mechanisms (CoDel, token buckets, latency-derived deadline
// accounting) deliberately restart fresh on resume: they are not part of
// the determinism contract and carry no state worth forging continuity
// for. Everything request-counted is restored exactly.
type ServeCheckpoint struct {
	SpecFingerprint string            `json:"spec_fingerprint"`
	Seed            uint64            `json:"seed"`
	ChaosSeed       uint64            `json:"chaos_seed,omitempty"`
	Processed       int64             `json:"processed"`
	Stream          StreamState       `json:"stream"`
	Classes         []ClassCheckpoint `json:"classes"`
	// Flight is the flight recorder's retained-trace state, present only
	// when a recorder is armed. Optional so pre-tracing checkpoints still
	// load; the supervisor also reads it to dump traces after a crash.
	Flight *obs.FlightState `json:"flight,omitempty"`
}

// ClassCheckpoint is one class's share of the snapshot.
type ClassCheckpoint struct {
	ID       string             `json:"id"`
	Counters ClassCounterState  `json:"counters"`
	Latency  obs.HistogramState `json:"latency"`
	Breaker  *BreakerState      `json:"breaker,omitempty"`
	Ladder   *LadderState       `json:"ladder,omitempty"`
	// Chain is the class's chaos accounting chain (running SHA-256 state),
	// present only in chaos campaigns.
	Chain []byte `json:"chain,omitempty"`
}

// ClassCounterState is the serialized form of classCounters.
type ClassCounterState struct {
	Generated      int64 `json:"generated"`
	Admitted       int64 `json:"admitted"`
	Shed           int64 `json:"shed"`
	ShedBucket     int64 `json:"shed_bucket"`
	ShedDelay      int64 `json:"shed_delay"`
	Completed      int64 `json:"completed"`
	Good           int64 `json:"good"`
	Faults         int64 `json:"faults"`
	Detected       int64 `json:"detected"`
	DeadlineMisses int64 `json:"deadline_misses"`
	Abandoned      int64 `json:"abandoned"`
	Retries        int64 `json:"retries"`
	RetrySuccesses int64 `json:"retry_successes"`
	ChaosInjected  int64 `json:"chaos_injected"`
}

// export snapshots the counters (the latency histogram travels separately).
func (cc *classCounters) export() ClassCounterState {
	return ClassCounterState{
		Generated:      cc.generated.Load(),
		Admitted:       cc.admitted.Load(),
		Shed:           cc.shed.Load(),
		ShedBucket:     cc.shedBucket.Load(),
		ShedDelay:      cc.shedDelay.Load(),
		Completed:      cc.completed.Load(),
		Good:           cc.good.Load(),
		Faults:         cc.faults.Load(),
		Detected:       cc.detected.Load(),
		DeadlineMisses: cc.deadlineMisses.Load(),
		Abandoned:      cc.abandoned.Load(),
		Retries:        cc.retries.Load(),
		RetrySuccesses: cc.retrySuccesses.Load(),
		ChaosInjected:  cc.chaosInjected.Load(),
	}
}

// restore overwrites the counters with a snapshot.
func (cc *classCounters) restore(n ClassCounterState) {
	cc.generated.Store(n.Generated)
	cc.admitted.Store(n.Admitted)
	cc.shed.Store(n.Shed)
	cc.shedBucket.Store(n.ShedBucket)
	cc.shedDelay.Store(n.ShedDelay)
	cc.completed.Store(n.Completed)
	cc.good.Store(n.Good)
	cc.faults.Store(n.Faults)
	cc.detected.Store(n.Detected)
	cc.deadlineMisses.Store(n.DeadlineMisses)
	cc.abandoned.Store(n.Abandoned)
	cc.retries.Store(n.Retries)
	cc.retrySuccesses.Store(n.RetrySuccesses)
	cc.chaosInjected.Store(n.ChaosInjected)
}

// Fingerprint is a stable identity for the spec's content: the hex SHA-256
// of its canonical JSON encoding. Checkpoints embed it so a resume against
// a different spec fails loudly instead of silently forking the stream.
func (s *Spec) Fingerprint() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on a validated spec.
		panic(fmt.Sprintf("traffic: spec fingerprint: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// capture snapshots the campaign at a barrier (producer-side, pipeline
// drained — the caller guarantees quiescence).
func (s *server) capture(stream *Stream) (*ServeCheckpoint, error) {
	st, err := stream.State()
	if err != nil {
		return nil, err
	}
	ck := &ServeCheckpoint{
		SpecFingerprint: s.spec.Fingerprint(),
		Seed:            s.seed,
		ChaosSeed:       s.chaos,
		Processed:       s.processed.Load(),
		Stream:          *st,
	}
	for i := range s.spec.Clients {
		cc := s.counters[i]
		cls := s.classes[i]
		c := ClassCheckpoint{
			ID:       s.spec.Clients[i].ID,
			Counters: cc.export(),
			Latency:  cc.lat.Export(),
		}
		if cls.breaker != nil {
			b := cls.breaker.export()
			c.Breaker = &b
		}
		if cls.ladder != nil {
			l := cls.ladder.export()
			c.Ladder = &l
		}
		if cls.digest != nil {
			chain, err := checkpoint.MarshalHash(cls.digest.h)
			if err != nil {
				return nil, err
			}
			c.Chain = chain
		}
		ck.Classes = append(ck.Classes, c)
	}
	if s.rec != nil {
		st := s.rec.Export()
		ck.Flight = &st
	}
	return ck, nil
}

// restore rewinds the campaign to a snapshot before admission starts. The
// snapshot must match this campaign's identity — spec fingerprint, seed,
// chaos seed — and its resilience shape must match the configured one
// (breaker state in the snapshot requires breakers armed now, and so on);
// any mismatch is a configuration error, not something to paper over.
func (s *server) restore(stream *Stream, ck *ServeCheckpoint) error {
	if got, want := ck.SpecFingerprint, s.spec.Fingerprint(); got != want {
		return fmt.Errorf("traffic: resume: checkpoint is for a different spec (fingerprint %.12s, this spec %.12s)", got, want)
	}
	if ck.Seed != s.seed {
		return fmt.Errorf("traffic: resume: checkpoint seed %d, campaign seed %d", ck.Seed, s.seed)
	}
	if ck.ChaosSeed != s.chaos {
		return fmt.Errorf("traffic: resume: checkpoint chaos seed %d, campaign chaos seed %d", ck.ChaosSeed, s.chaos)
	}
	if len(ck.Classes) != len(s.spec.Clients) {
		return fmt.Errorf("traffic: resume: checkpoint has %d classes, spec has %d", len(ck.Classes), len(s.spec.Clients))
	}
	if err := stream.Restore(&ck.Stream); err != nil {
		return err
	}
	var admitted int64
	for i := range ck.Classes {
		c := &ck.Classes[i]
		if c.ID != s.spec.Clients[i].ID {
			return fmt.Errorf("traffic: resume: class %d is %q in the checkpoint, %q in the spec", i, c.ID, s.spec.Clients[i].ID)
		}
		cc := s.counters[i]
		cls := s.classes[i]
		cc.restore(c.Counters)
		if err := cc.lat.Import(c.Latency); err != nil {
			return fmt.Errorf("traffic: resume: class %q: %w", c.ID, err)
		}
		if (c.Breaker != nil) != (cls.breaker != nil) {
			return fmt.Errorf("traffic: resume: class %q: breaker state %v in checkpoint, breakers armed %v now", c.ID, c.Breaker != nil, cls.breaker != nil)
		}
		if c.Breaker != nil {
			if err := cls.breaker.restore(*c.Breaker); err != nil {
				return fmt.Errorf("traffic: resume: class %q: %w", c.ID, err)
			}
		}
		if (c.Ladder != nil) != (cls.ladder != nil) {
			return fmt.Errorf("traffic: resume: class %q: ladder state %v in checkpoint, ladder armed %v now", c.ID, c.Ladder != nil, cls.ladder != nil)
		}
		if c.Ladder != nil {
			if err := cls.ladder.restore(*c.Ladder); err != nil {
				return fmt.Errorf("traffic: resume: class %q: %w", c.ID, err)
			}
		}
		if (c.Chain != nil) != (cls.digest != nil) {
			return fmt.Errorf("traffic: resume: class %q: chaos chain %v in checkpoint, chaos armed %v now", c.ID, c.Chain != nil, cls.digest != nil)
		}
		if c.Chain != nil {
			if err := checkpoint.UnmarshalHash(cls.digest.h, c.Chain); err != nil {
				return fmt.Errorf("traffic: resume: class %q: %w", c.ID, err)
			}
		}
		admitted += c.Counters.Admitted
	}
	if (ck.Flight != nil) != (s.rec != nil) {
		return fmt.Errorf("traffic: resume: flight state %v in checkpoint, recorder armed %v now", ck.Flight != nil, s.rec != nil)
	}
	if ck.Flight != nil {
		if err := s.rec.Import(ck.Flight); err != nil {
			return fmt.Errorf("traffic: resume: %w", err)
		}
	}
	// At the barrier every admitted request was terminally accounted, so
	// the resumed pipeline starts drained.
	s.admittedAll.Store(admitted)
	s.finalized.Store(admitted)
	s.processed.Store(ck.Processed)
	return nil
}
