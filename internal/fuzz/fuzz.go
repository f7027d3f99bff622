// Package fuzz is the repository's adversarial correctness subsystem: a
// seeded random program generator with ground-truth bug injection, a
// differential executor that fans every generated case across all seven
// sanitizer models, and a delta-debugging minimizer for disagreements.
//
// The Juliet-style generator (internal/juliet) enumerates fixed bug shapes;
// this package probes the space BETWEEN those shapes. Each case is a small
// random C-like program rendered as csrc source (so every artifact is
// printable and replayable with cmd/cecsan-run), compiled to the prog IR,
// and optionally injected with exactly one labelled bug from the taxonomy
// in taxonomy.go. The ground truth travels with the case as an Oracle
// record; models.go turns the oracle into a per-sanitizer expectation
// derived from each model's documented mechanism:
//
//   - CECSan must detect every injected bug with the expected violation
//     kind, and must stay silent on clean programs. The single exception —
//     found by this fuzzer, now part of the oracle — is the staged
//     tag-reuse UAF (uaf_quarantine_flush): the metadata table recycles
//     freed entries through the GMI free structure, so a same-size
//     reallocation rebuilds the stale pointer's entry over the same
//     address range and the dangling access validates.
//   - native (nosan) must never report and never fault.
//   - Every baseline miss must match that model's documented blind spot
//     (HWASan's intra-granule slack, ASan's redzone-skipping strides,
//     SoftBound's uninstrumented wide/memset wrappers, ...). A miss outside
//     the documented set — or a detection where the mechanism says the tool
//     must be blind — is a finding.
//
// Findings are minimized by statement deletion (minimize.go) and emitted as
// .csc reproducers.
package fuzz

import (
	"cecsan/internal/rt"
)

// Bug classes, the top level of the taxonomy.
const (
	ClassSpatial     = "spatial"
	ClassSubObject   = "subobject"
	ClassTemporal    = "temporal"
	ClassInvalidFree = "invalidfree"
	ClassExternal    = "external"
)

// Oracle is the ground-truth record attached to a generated case. For an
// injected bug it carries the attributes the per-sanitizer expectation
// models key on; for a clean program only Injected=false matters.
type Oracle struct {
	Injected bool    `json:"injected"`
	Class    string  `json:"class,omitempty"` // ClassSpatial, ...
	Shape    string  `json:"shape,omitempty"` // taxonomy entry name
	Kind     rt.Kind `json:"-"`               // exact kind CECSan must report

	// Attributes of the buggy access, consumed by models.go.
	Seg         string `json:"seg,omitempty"`  // "heap", "stack", "global"
	Libc        string `json:"libc,omitempty"` // libc carrier ("" = direct access)
	Wide        bool   `json:"wide,omitempty"` // wide-char libc carrier (wcs*/wmem*)
	SubObject   bool   `json:"sub_object,omitempty"`
	Underflow   bool   `json:"underflow,omitempty"`
	FarStride   bool   `json:"far_stride,omitempty"` // lands beyond any redzone
	Extern      bool   `json:"extern,omitempty"`     // access through an externret pointer
	Reloaded    bool   `json:"reloaded,omitempty"`   // pointer reloaded from memory
	InputDriven bool   `json:"input_driven,omitempty"`
	// Reuse marks a UAF staged so the freed chunk is genuinely recycled
	// before the stale access: enough churn to flush ASan's quarantine,
	// followed by a same-size allocation that (with this allocator's LIFO
	// size classes) reoccupies the chunk — and, for the CECSan family,
	// reclaims the freed metadata-table index.
	Reuse bool `json:"reuse,omitempty"`
	// IndexReuse marks a UAF staged so only the CECSan family's reuse
	// window opens: a same-size realloc recycles the chunk address and the
	// metadata-table index through the stale tag, but the churn is far too
	// small to flush ASan's quarantine, so redzone-based tools still see
	// poisoned shadow.
	IndexReuse bool `json:"index_reuse,omitempty"`

	// Byte extent of the violating access relative to the object base, and
	// the object's size: the inputs to the granule arithmetic (HWASan's
	// 16-byte tag granules, ASan's 8-byte shadow encoding).
	OffStart int64 `json:"off_start,omitempty"`
	OffEnd   int64 `json:"off_end,omitempty"`
	ObjBytes int64 `json:"obj_bytes,omitempty"`
}

// KindName renders the expected CECSan kind for JSON records.
func (o *Oracle) KindName() string {
	if !o.Injected {
		return ""
	}
	return o.Kind.String()
}

// Case is one generated program plus its ground truth. Source always
// recompiles (csrc.Compile) to a program with Program's fingerprint; the
// minimizer relies on that round trip.
type Case struct {
	Seed   uint64
	Source string
	Inputs [][]byte
	Oracle Oracle

	// Generator internals retained for minimization: the op list Source
	// was rendered from.
	objects []object
	ops     []op
}
