package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"specweb/internal/estguard"
	"specweb/internal/markov"
	"specweb/internal/obs"
)

// testSnapshot builds a representative snapshot: probability ties (the
// Doc-asc tie order must survive), a quarantined and a human client, and
// a calibrated judge.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Meta: Meta{
			CreatedUnixNano:     1700000000123456789,
			Fingerprint:         0xdeadbeefcafe,
			Recorded:            4096,
			LastRefreshUnixNano: 1700000000000000000,
		},
		Knobs: Knobs{Tp: 0.25, Embed: 0.95, MaxSize: 1 << 20, TopK: 8},
		Rows: []Row{
			{Doc: 0, Succ: []Succ{
				{Doc: 3, PBits: math.Float64bits(0.9)},
				{Doc: 1, PBits: math.Float64bits(0.5)},
				{Doc: 2, PBits: math.Float64bits(0.5)},
				{Doc: 7, PBits: math.Float64bits(0.125)},
			}},
			{Doc: 2, Succ: []Succ{{Doc: 0, PBits: math.Float64bits(1.0)}}},
			{Doc: 9, Succ: []Succ{
				{Doc: 4, PBits: math.Float64bits(0.0625)},
			}},
		},
		Clients: []estguard.ClientSummary{
			{ID: "c-001", Status: estguard.Quarantined, Reason: estguard.ReasonCrawler,
				TotalReqs: 900, Windows: 4, Breadth: 0.92, Distinct: 200, Repeat: 0.01,
				GapCV: 0.05, Streak: 1},
			{ID: "c-002", Status: estguard.Human,
				TotalReqs: 40, Windows: 3, Breadth: 0.4, Distinct: 12, Repeat: 0.3,
				GapCV: 1.8},
		},
		Judge: estguard.JudgeSummary{
			HaveLast: true, LastScore: 0.62,
			Delivered: 500, Consumed: 310, Wasted: 120, Streak: 2,
		},
	}
}

func mustEncode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	b, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

func TestCodecRoundTripByteDeterministic(t *testing.T) {
	want := testSnapshot()
	frame := mustEncode(t, want)

	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	again := mustEncode(t, got)
	if !bytes.Equal(again, frame) {
		t.Fatalf("re-encode(decode(x)) != x: %d vs %d bytes", len(again), len(frame))
	}
}

func TestCodecEmptySnapshot(t *testing.T) {
	s := &Snapshot{}
	frame := mustEncode(t, s)
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if !bytes.Equal(mustEncode(t, got), frame) {
		t.Fatal("empty snapshot not byte-stable")
	}
}

// TestFrozenRowsRoundTrip pins the engine-facing conversion: frozen →
// rows → frozen → rows must be an identity, so a shipped frame rebuilds
// the exact decision state.
func TestFrozenRowsRoundTrip(t *testing.T) {
	m := markov.NewMatrix()
	m.Set(0, 1, 0.5)
	m.Set(0, 2, 0.5) // tie with doc 1
	m.Set(0, 3, 0.9)
	m.Set(5, 0, 1.0)
	f := markov.Freeze(m)
	rows := RowsFromFrozen(f)

	f2, err := FrozenFromRows(rows)
	if err != nil {
		t.Fatalf("FrozenFromRows: %v", err)
	}
	if !reflect.DeepEqual(f2, f) {
		t.Fatalf("restored CSR differs from the frozen one:\n%+v\n%+v", f2, f)
	}
	rows2 := RowsFromFrozen(f2)
	if !reflect.DeepEqual(rows, rows2) {
		t.Fatalf("frozen rows not stable:\n%+v\n%+v", rows, rows2)
	}
	if got := f2.Get(0, 3); got != 0.9 {
		t.Fatalf("rebuilt frozen lost p(0,3): %v", got)
	}
}

func TestFrozenFromRowsRejectsBadProbability(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		rows := []Row{{Doc: 0, Succ: []Succ{{Doc: 1, PBits: math.Float64bits(p)}}}}
		if _, err := FrozenFromRows(rows); err == nil {
			t.Fatalf("FrozenFromRows accepted p=%v", p)
		}
	}
}

// TestFrozenFromRowsMalformed holds restore to the canonical form: rows
// out of document order, a row out of (P desc, Doc asc) order, an empty
// row or a probability outside (0, 1] is ErrMalformed, never a panic.
func TestFrozenFromRowsMalformed(t *testing.T) {
	succ := func(doc int32, p float64) Succ { return Succ{Doc: doc, PBits: math.Float64bits(p)} }
	good := Row{Doc: 3, Succ: []Succ{succ(1, 0.9), succ(2, 0.5), succ(4, 0.5)}}
	for _, tc := range []struct {
		name string
		rows []Row
	}{
		{"unsorted ids", []Row{good, {Doc: 1, Succ: []Succ{succ(2, 0.5)}}}},
		{"repeated id", []Row{good, good}},
		{"P ascending", []Row{{Doc: 3, Succ: []Succ{succ(2, 0.5), succ(1, 0.9)}}}},
		{"tie by Doc descending", []Row{{Doc: 3, Succ: []Succ{succ(4, 0.5), succ(2, 0.5)}}}},
		{"repeated successor", []Row{{Doc: 3, Succ: []Succ{succ(2, 0.5), succ(2, 0.5)}}}},
		{"empty row", []Row{{Doc: 3}}},
		{"p = 0", []Row{{Doc: 3, Succ: []Succ{succ(1, 0.9), succ(2, 0)}}}},
		{"p > 1", []Row{{Doc: 3, Succ: []Succ{succ(1, 1.5)}}}},
		{"NaN", []Row{{Doc: 3, Succ: []Succ{succ(1, 0.9), succ(2, math.NaN())}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FrozenFromRows(tc.rows); !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
	rows := []Row{good, {Doc: 1 << 20, Succ: []Succ{succ(0, 1)}}}
	f, err := FrozenFromRows(rows)
	if err != nil {
		t.Fatalf("canonical rows rejected: %v", err)
	}
	if got := RowsFromFrozen(f); !reflect.DeepEqual(got, rows) {
		t.Fatalf("canonical rows did not round-trip:\n got %+v\nwant %+v", got, rows)
	}
}

func TestDecodeTruncatedEveryPrefix(t *testing.T) {
	frame := mustEncode(t, testSnapshot())
	for n := 0; n < len(frame); n++ {
		_, err := Decode(frame[:n])
		if err == nil {
			t.Fatalf("Decode accepted %d-byte prefix of a %d-byte frame", n, len(frame))
		}
		if !IsCorrupt(err) {
			t.Fatalf("prefix %d: error %v is not IsCorrupt", n, err)
		}
	}
}

func TestDecodeBitFlipEveryByte(t *testing.T) {
	frame := mustEncode(t, testSnapshot())
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("Decode accepted frame with byte %d flipped", i)
		}
		if !IsCorrupt(err) {
			t.Fatalf("byte %d: error %v is not IsCorrupt", i, err)
		}
	}
}

// reframe rewrites a frame's CRC after a deliberate header/payload edit,
// so the test reaches the validation behind the checksum.
func reframe(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	body := out[:len(out)-trailerLen]
	binary.LittleEndian.PutUint32(out[len(out)-trailerLen:], crc32.Checksum(body, castagnoli))
	return out
}

func TestDecodeVersionSkew(t *testing.T) {
	frame := mustEncode(t, testSnapshot())

	skew := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(skew[8:10], VersionBounded+1)
	_, err := Decode(reframe(skew))
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("future version: got %v", err)
	}

	flags := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(flags[10:12], 0x8000)
	if _, err := Decode(reframe(flags)); err == nil || !IsCorrupt(err) {
		t.Fatalf("unknown flags: got %v", err)
	}

	garbage := append([]byte("NOTACKPT"), frame[8:]...)
	if _, err := Decode(reframe(garbage)); err == nil || !IsCorrupt(err) {
		t.Fatalf("bad magic: got %v", err)
	}

	trailing := append(append([]byte(nil), frame...), 0xFF)
	if _, err := Decode(trailing); err == nil || !IsCorrupt(err) {
		t.Fatalf("trailing byte: got %v", err)
	}
}

// TestEncodeRejectsNonCanonical drives the shared validator: every way a
// snapshot can violate the canonical form must be refused symmetrically
// by Encode (engine bugs surface at save time) and, via reframe, Decode.
func TestEncodeRejectsNonCanonical(t *testing.T) {
	cases := map[string]func(*Snapshot){
		"tp above one":      func(s *Snapshot) { s.Knobs.Tp = 1.5 },
		"tp NaN":            func(s *Snapshot) { s.Knobs.Tp = math.NaN() },
		"negative max size": func(s *Snapshot) { s.Knobs.MaxSize = -1 },
		"negative recorded": func(s *Snapshot) { s.Meta.Recorded = -1 },
		"rows out of order": func(s *Snapshot) { s.Rows[1].Doc = 0 },
		"negative doc":      func(s *Snapshot) { s.Rows[0].Doc = -3 },
		"empty row":         func(s *Snapshot) { s.Rows[0].Succ = nil },
		"self successor":    func(s *Snapshot) { s.Rows[1].Succ[0].Doc = 2 },
		"zero probability": func(s *Snapshot) {
			s.Rows[0].Succ[0].PBits = math.Float64bits(0)
		},
		"probability above one": func(s *Snapshot) {
			s.Rows[0].Succ[0].PBits = math.Float64bits(1.25)
		},
		"row order violated": func(s *Snapshot) {
			s.Rows[0].Succ[0], s.Rows[0].Succ[1] = s.Rows[0].Succ[1], s.Rows[0].Succ[0]
		},
		"tie order violated": func(s *Snapshot) {
			s.Rows[0].Succ[1], s.Rows[0].Succ[2] = s.Rows[0].Succ[2], s.Rows[0].Succ[1]
		},
		"clients out of order": func(s *Snapshot) {
			s.Clients[0], s.Clients[1] = s.Clients[1], s.Clients[0]
		},
		"empty client id": func(s *Snapshot) { s.Clients[0].ID = "" },
		"human with reason": func(s *Snapshot) {
			s.Clients[1].Reason = estguard.ReasonBot
		},
		"invented quarantine reason": func(s *Snapshot) {
			s.Clients[0].Reason = "nosy-neighbor"
		},
		"bad status": func(s *Snapshot) { s.Clients[0].Status = 7 },
		"client NaN fingerprint": func(s *Snapshot) {
			s.Clients[0].GapCV = math.NaN()
		},
		"zero windows":    func(s *Snapshot) { s.Clients[0].Windows = 0 },
		"judge above one": func(s *Snapshot) { s.Judge.LastScore = 1.5 },
		"judge state without last": func(s *Snapshot) {
			s.Judge.HaveLast = false
		},
	}
	for name, mutate := range cases {
		s := testSnapshot()
		mutate(s)
		if _, err := Encode(s); err == nil {
			t.Errorf("%s: Encode accepted non-canonical snapshot", name)
		}
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(StoreConfig{Dir: dir, Fingerprint: 42, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	want := testSnapshot()
	path, err := st.Save(want)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("saved outside state dir: %s", path)
	}

	got, info, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got == nil || info.Skipped != 0 {
		t.Fatalf("Load: snap=%v skipped=%d", got, info.Skipped)
	}
	if got.Meta.Fingerprint != 42 {
		t.Fatalf("Save did not stamp the store fingerprint: %d", got.Meta.Fingerprint)
	}
	want.Meta.Fingerprint = 42
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store round trip diverged")
	}
	c := st.Counters()
	if c.Saved != 1 || c.Loaded != 1 || c.CorruptSkipped != 0 || c.ColdStarts != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
}

func TestStoreRetention(t *testing.T) {
	st, err := NewStore(StoreConfig{Dir: t.TempDir(), Retain: 2, Fingerprint: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s := testSnapshot()
		s.Meta.Recorded = int64(i)
		if _, err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := st.frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("retention kept %d frames, want 2", len(frames))
	}
	snap, _, err := st.Load()
	if err != nil || snap == nil {
		t.Fatalf("Load after prune: %v %v", snap, err)
	}
	if snap.Meta.Recorded != 4 {
		t.Fatalf("newest frame should win, got recorded=%d", snap.Meta.Recorded)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFallbackLadder: newest corrupt → previous good frame wins;
// everything corrupt → counted cold start with nil snapshot, nil error.
func TestStoreFallbackLadder(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(StoreConfig{Dir: dir, Fingerprint: 9, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	good := testSnapshot()
	good.Meta.Recorded = 111
	if _, err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	bad := testSnapshot()
	bad.Meta.Recorded = 222
	badPath, err := st.Save(bad)
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, badPath)

	snap, info, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap == nil || snap.Meta.Recorded != 111 {
		t.Fatalf("ladder should fall back to last-good frame, got %+v", snap)
	}
	if info.Skipped != 1 {
		t.Fatalf("skipped=%d, want 1", info.Skipped)
	}

	// Corrupt the survivor too: the ladder ends in a counted cold start.
	corruptFile(t, info.Path)
	snap, info, err = st.Load()
	if err != nil {
		t.Fatalf("Load all-corrupt: %v", err)
	}
	if snap != nil {
		t.Fatal("all-corrupt directory must cold-start")
	}
	c := st.Counters()
	if c.ColdStarts != 1 || c.CorruptSkipped != 3 || c.Loaded != 1 {
		t.Fatalf("counters after ladder: %+v", c)
	}
}

func TestStoreFingerprintMismatchSkips(t *testing.T) {
	dir := t.TempDir()
	a, err := NewStore(StoreConfig{Dir: dir, Fingerprint: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Save(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Same directory, different engine/site identity.
	b, err := NewStore(StoreConfig{Dir: dir, Fingerprint: 2, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	snap, info, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("incompatible frame must not warm-start")
	}
	if info.Skipped != 1 || b.Counters().ColdStarts != 1 {
		t.Fatalf("mismatch accounting: info=%+v counters=%+v", info, b.Counters())
	}
}

// TestStoreSequenceSurvivesReopen: a reopened store continues the file
// sequence instead of overwriting the newest frame.
func TestStoreSequenceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Dir: dir, Fingerprint: 5, Metrics: obs.NewRegistry()}
	st1, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := st1.Save(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	st2, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := st2.Save(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("reopened store reused sequence number: %s", p2)
	}
}

func TestFingerprintCombine(t *testing.T) {
	if Fingerprint("a") == Fingerprint("b") {
		t.Fatal("distinct strings collided")
	}
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine must be order-sensitive")
	}
}
