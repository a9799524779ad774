// Package checkpoint makes the speculation engine's trained state durable.
//
// The paper's speculative service is only worth running while the server
// holds an estimated P[i,j]; a crash or redeploy that discards the frozen
// Markov snapshot sends interception to ~0 until the estimator re-trains —
// exactly the server-load regression the paper exists to avoid. This
// package provides a versioned, checksummed binary codec for that state
// (the frozen CSR matrix, the policy knobs in force, the estguard
// per-client trust/quarantine summaries, and the snapshot judge's
// calibration bound) plus an atomic on-disk store with bounded retention
// and a manifest of config fingerprints, so a checkpoint only ever loads
// into a compatible engine.
//
// The codec is strictly canonical: Decode accepts exactly the byte
// strings Encode produces, and re-encoding a decoded snapshot reproduces
// the input byte for byte. That property is what lets the same frames
// later ship frozen snapshots between cluster nodes (ROADMAP's multi-node
// item) with content-addressed dedup — a frame is its state, with no
// encoder freedom to diverge.
package checkpoint

import (
	"errors"
	"fmt"
	"math"

	"specweb/internal/estguard"
	"specweb/internal/markov"
	"specweb/internal/webgraph"
)

// Typed decode failures. Every way a file can be unusable maps onto one of
// these, so the recovery ladder can distinguish "corrupt, try the previous
// file" (IsCorrupt) from an I/O error worth surfacing.
var (
	// ErrTruncated: the file ends before the framing says it should.
	ErrTruncated = errors.New("checkpoint: truncated file")
	// ErrBadMagic: the leading bytes are not a checkpoint frame at all.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrVersion: the frame is from a codec this build does not speak.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrChecksum: framing is intact but the CRC over header+payload fails.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrMalformed: the checksum passes but the payload violates the
	// canonical form (out-of-range probability, unsorted rows, unknown
	// quarantine reason, trailing bytes, ...).
	ErrMalformed = errors.New("checkpoint: malformed payload")
	// ErrFingerprint: the frame decodes but was written by an engine with
	// an incompatible configuration or site seed.
	ErrFingerprint = errors.New("checkpoint: fingerprint mismatch")
)

// IsCorrupt reports whether err means "this file is unusable but the next
// (older) one might not be" — the condition that advances the
// corrupt → last-good → cold-start fallback ladder.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrBadMagic) ||
		errors.Is(err, ErrVersion) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrMalformed) || errors.Is(err, ErrFingerprint)
}

// Meta is the snapshot's provenance block.
type Meta struct {
	// CreatedUnixNano is the engine clock at checkpoint time (virtual in
	// deterministic harnesses, wall elsewhere).
	CreatedUnixNano int64
	// Fingerprint binds the frame to an engine+site configuration; the
	// store stamps it on Save and refuses mismatches on Load.
	Fingerprint uint64
	// Recorded is the engine's lifetime observed-request count.
	Recorded int64
	// LastRefreshUnixNano is when the frozen matrix being persisted was
	// estimated.
	LastRefreshUnixNano int64
}

// Knobs are the §3.4 policy knobs in force when the snapshot was taken.
// They ride in the checkpoint (rather than the fingerprint) because the
// overload governor retunes them at runtime; a warm start resumes with the
// tuning the dead process had converged to.
type Knobs struct {
	Tp      float64
	Embed   float64
	MaxSize int64
	TopK    int32
}

// Succ is one successor entry of a CSR row. The probability travels as
// raw IEEE-754 bits so the round trip is exact.
type Succ struct {
	Doc   int32
	PBits uint64
}

// P returns the successor's probability.
func (s Succ) P() float64 { return math.Float64frombits(s.PBits) }

// Row is one document's successor row, sorted by (P desc, Doc asc) —
// the same canonical order markov.Freeze produces.
type Row struct {
	Doc  int32
	Succ []Succ
}

// EstimatorState is the bounded estimator's persisted summary: the caps
// that shaped the rows being checkpointed and the cumulative eviction
// ledger, so a warm start resumes with monotone eviction counters and
// operators can see how lossy the persisted estimate is. The live
// space-saving store itself is deliberately absent for the same reason
// the exact accumulator is (DESIGN §13): it describes a training window
// the dead process never finished. The evicted mass travels as raw
// IEEE-754 bits so the round trip is exact.
type EstimatorState struct {
	MaxRows      int32
	RowTopK      int32
	EvictedRows  int64
	EvictedPairs int64
	EvictedMass  float64
}

// Snapshot is the decoded form of one checkpoint frame: everything a
// fresh engine needs to resume speculating as if the crash never
// happened. Live shard buffers, the aging pair accumulator, and the drift
// window are deliberately absent — see DESIGN §13 for why.
//
// Estimator is nil on exact-estimator engines; its presence selects the
// codec version (nil encodes as version 1, non-nil as version 2), so old
// frames and old readers keep working and Encode(Decode(x)) == x holds
// per version with no extra bookkeeping.
type Snapshot struct {
	Meta      Meta
	Knobs     Knobs
	Rows      []Row // ascending Doc
	Clients   []estguard.ClientSummary
	Judge     estguard.JudgeSummary
	Estimator *EstimatorState
}

// Counters is the checkpoint lifecycle tally, exported on /spec/stats,
// in replay -chaos summaries, and per restart-harness arm. The JSON shape
// is shared by every surface so baselines compare across them.
type Counters struct {
	Saved          int64 `json:"saved"`
	SaveErrors     int64 `json:"save_errors,omitempty"`
	Loaded         int64 `json:"loaded"`
	CorruptSkipped int64 `json:"corrupt_skipped"`
	ColdStarts     int64 `json:"cold_starts"`
}

// Fingerprint hashes a configuration description into the 64-bit
// compatibility stamp (FNV-1a). Callers build s from every field that
// changes what the persisted state means.
func Fingerprint(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Combine folds two fingerprints into one (order-sensitive), for stamping
// a frame with both the engine config and the site identity.
func Combine(a, b uint64) uint64 {
	return Fingerprint(fmt.Sprintf("%016x|%016x", a, b))
}

// RowsFromFrozen converts a frozen matrix into checkpoint rows. RangeRows
// visits rows in ascending DocID order with successors pre-sorted, so the
// output is already canonical — and identical regardless of how many
// workers recorded the underlying traffic.
func RowsFromFrozen(f *markov.Frozen) []Row {
	rows := make([]Row, 0, f.NumRows())
	f.RangeRows(func(doc webgraph.DocID, row []markov.Successor) bool {
		r := Row{Doc: int32(doc), Succ: make([]Succ, 0, len(row))}
		for _, s := range row {
			r.Succ = append(r.Succ, Succ{Doc: int32(s.Doc), PBits: math.Float64bits(s.P)})
		}
		rows = append(rows, r)
		return true
	})
	return rows
}

// FrozenFromRows rebuilds the immutable CSR snapshot from checkpoint
// rows. Rows Decode accepted are canonical (ascending documents, each row
// in frozen order), so they are appended to the CSR as they stand;
// markov.NewFrozen re-checks the order and every probability, since a
// decoded file crossed a trust boundary even when its checksum held.
func FrozenFromRows(rows []Row) (*markov.Frozen, error) {
	pairs := 0
	for _, r := range rows {
		pairs += len(r.Succ)
	}
	ids := make([]webgraph.DocID, 0, len(rows))
	off := make([]int32, 1, len(rows)+1)
	succ := make([]markov.Successor, 0, pairs)
	for _, r := range rows {
		ids = append(ids, webgraph.DocID(r.Doc))
		for _, s := range r.Succ {
			succ = append(succ, markov.Successor{Doc: webgraph.DocID(s.Doc), P: s.P()})
		}
		off = append(off, int32(len(succ)))
	}
	f, err := markov.NewFrozen(ids, off, succ)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return f, nil
}
