package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/cmp"
)

// testResults builds a Results fixture exercising every encoding shape
// that matters: unsigned counters, floats, and the stats.Mean
// accumulators (unexported fields, round-tripped via MarshalBinary).
func testResults(seed int64) cmp.Results {
	var r cmp.Results
	r.Mode = cmp.DISCO
	r.Benchmark = fmt.Sprintf("bench%d", seed)
	r.Algorithm = "delta"
	r.Cycles = uint64(10_000 + seed)
	r.AvgMissLatency = 21.5 + float64(seed)/7
	r.AvgMissTotal = 90.25 + float64(seed)
	r.Misses = uint64(seed * 13)
	r.L1Hits, r.L1Misses = uint64(seed*31), uint64(seed*5)
	r.Net.Injected = uint64(seed * 3)
	r.Net.Ejected = uint64(seed * 3)
	r.Net.FlitHopsByClass = [3]uint64{uint64(seed), uint64(seed * 2), uint64(seed * 3)}
	for i := int64(0); i <= 8+seed%5; i++ {
		r.Net.PacketLatency.Add(float64(i) * 1.37)
		r.Net.QueueCycles.Add(float64(i+seed) * 0.61)
		r.Net.QueueDelay.Add(1.0 / float64(i+1))
	}
	return r
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Version == "" {
		opts.Version = "test-v1"
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	want := testResults(3)
	if err := s.Put("cell-a", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("cell-a")
	if !ok {
		t.Fatal("Get missed a just-committed entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := s.Get("cell-b"); ok {
		t.Error("Get hit an absent key")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 put / 1 hit / 1 miss", st)
	}
}

// TestVersionIsolation: entries are content-addressed by version stamp
// too, so a store opened under different code can never replay them.
func TestVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{Version: "rev-a"})
	if err := s1.Put("cell", testResults(1)); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{Version: "rev-b"})
	if _, ok := s2.Get("cell"); ok {
		t.Error("a rev-b store replayed a rev-a entry")
	}
	if _, ok := s1.Get("cell"); !ok {
		t.Error("the writing store no longer sees its own entry")
	}
}

// TestFingerprintMismatchRejected covers the hash-alias defense: even
// when the file name matches, a payload recorded under a different key
// or version must fail verification.
func TestFingerprintMismatchRejected(t *testing.T) {
	data, err := encodeEntry("key-a", "v1", testResults(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEntry(data, "key-a", "v1"); err != nil {
		t.Fatalf("pristine entry rejected: %v", err)
	}
	if _, err := decodeEntry(data, "key-b", "v1"); err == nil {
		t.Error("entry decoded under the wrong key")
	}
	if _, err := decodeEntry(data, "key-a", "v2"); err == nil {
		t.Error("entry decoded under the wrong version")
	}
}

// TestCorruptionNeverPropagates is the store's core safety property:
// any single bit flip, truncation or trailing-garbage append makes Get
// report a miss and quarantine the file — never return wrong results —
// and a subsequent Put/Get converges back to the correct value.
func TestCorruptionNeverPropagates(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	want := testResults(7)
	const key = "cell-corrupt"
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, s.EntryName(key))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	type corruption struct {
		name string
		data []byte
	}
	var cases []corruption
	// Bit flips: every header byte plus a random sample of the payload.
	for off := 0; off < headerSize; off++ {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 1 << uint(rng.Intn(8))
		cases = append(cases, corruption{fmt.Sprintf("flip@%d", off), mut})
	}
	for i := 0; i < 64; i++ {
		off := headerSize + rng.Intn(len(pristine)-headerSize)
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 1 << uint(rng.Intn(8))
		cases = append(cases, corruption{fmt.Sprintf("flip@%d", off), mut})
	}
	// Truncations: empty, mid-header, header-only, and a random sample
	// of payload cut points (torn writes land here).
	cuts := []int{0, 1, headerSize - 1, headerSize, len(pristine) - 1}
	for i := 0; i < 16; i++ {
		cuts = append(cuts, rng.Intn(len(pristine)))
	}
	for _, n := range cuts {
		cases = append(cases, corruption{fmt.Sprintf("trunc@%d", n), pristine[:n]})
	}
	cases = append(cases, corruption{"append-garbage", append(append([]byte(nil), pristine...), 0xAA)})

	for _, c := range cases {
		before := s.Stats().Quarantined
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, ok := s.Get(key); ok {
			// The one thing that must never happen: corruption served as
			// a result. (Even bitwise-equal would mean verification is
			// not doing its job.)
			t.Fatalf("%s: Get returned ok for a corrupted entry (res %+v)", c.name, res)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupted entry still visible under its name", c.name)
		}
		if got := s.Stats().Quarantined; got != before+1 {
			t.Errorf("%s: quarantined count %d, want %d", c.name, got, before+1)
		}
		// Recompute path: a fresh Put converges back to the truth.
		if err := s.Put(key, want); err != nil {
			t.Fatalf("%s: re-put: %v", c.name, err)
		}
		got, ok := s.Get(key)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store did not converge after recompute (ok=%v)", c.name, ok)
		}
	}
	// Every quarantined file is preserved aside for post-mortems.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	aside := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), quarantineSuffix) {
			aside++
		}
	}
	if aside != len(cases) {
		t.Errorf("%d quarantine files on disk, want %d", aside, len(cases))
	}
}

// TestTornWriteQuarantines drives the ShortWrite torn-write simulation
// end to end: the Put "succeeds" (as a crash after a partial write
// would appear to), and the next Get detects, quarantines, misses.
func TestTornWriteQuarantines(t *testing.T) {
	dir := t.TempDir()
	torn := &InjectFS{Base: OSFS{}, ShortWrite: headerSize + 5}
	s := openTest(t, dir, Options{FS: torn})
	if err := s.Put("cell", testResults(4)); err != nil {
		t.Fatalf("torn write surfaced as a Put error: %v", err)
	}
	if _, ok := s.Get("cell"); ok {
		t.Fatal("Get served a torn entry")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// A healthy store over the same directory recovers by recomputing.
	s2 := openTest(t, dir, Options{})
	want := testResults(4)
	if err := s2.Put("cell", want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("cell"); !ok || !reflect.DeepEqual(got, want) {
		t.Error("store did not converge after the torn write")
	}
}

// TestPutFailuresLeaveNoEntry fails each step of the durability
// protocol in turn and checks the invariant: a failed Put returns an
// error and leaves nothing visible — no entry, no temp residue.
func TestPutFailuresLeaveNoEntry(t *testing.T) {
	errInjected := errors.New("injected fault")
	for _, op := range []string{"create", "write", "sync", "close", "rename"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			fs := &InjectFS{Base: OSFS{}}
			s := openTest(t, dir, Options{FS: fs})
			fs.Hook = func(gotOp, name string) error {
				if gotOp == op {
					return errInjected
				}
				return nil
			}
			err := s.Put("cell", testResults(5))
			if !errors.Is(err, errInjected) {
				t.Fatalf("Put error = %v, want wrapped injected fault", err)
			}
			fs.Hook = nil
			if _, ok := s.Get("cell"); ok {
				t.Error("entry visible after failed Put")
			}
			files, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			for _, f := range files {
				if strings.Contains(f.Name(), ".tmp.") {
					t.Errorf("temp residue left behind: %s", f.Name())
				}
				if strings.HasSuffix(f.Name(), entrySuffix) {
					t.Errorf("committed entry after failed Put: %s", f.Name())
				}
			}
			if st := s.Stats(); st.PutErrors != 1 {
				t.Errorf("PutErrors = %d, want 1", st.PutErrors)
			}
		})
	}
}

// TestSyncDirFailureIsReported: after the rename the entry is
// legitimately visible, but the weaker durability must still surface
// as a Put error so campaigns can report it.
func TestSyncDirFailureIsReported(t *testing.T) {
	errInjected := errors.New("injected fault")
	fs := &InjectFS{Base: OSFS{}}
	s := openTest(t, t.TempDir(), Options{FS: fs})
	fs.Hook = func(op, name string) error {
		if op == "syncdir" {
			return errInjected
		}
		return nil
	}
	if err := s.Put("cell", testResults(6)); !errors.Is(err, errInjected) {
		t.Fatalf("Put error = %v, want wrapped injected fault", err)
	}
	fs.Hook = nil
	if _, ok := s.Get("cell"); !ok {
		t.Error("renamed entry should remain readable after a syncdir failure")
	}
}

func TestGetReadErrorIsMiss(t *testing.T) {
	errInjected := errors.New("injected fault")
	fs := &InjectFS{Base: OSFS{}}
	s := openTest(t, t.TempDir(), Options{FS: fs})
	if err := s.Put("cell", testResults(8)); err != nil {
		t.Fatal(err)
	}
	fs.Hook = func(op, name string) error {
		if op == "readfile" {
			return errInjected
		}
		return nil
	}
	if _, ok := s.Get("cell"); ok {
		t.Error("Get reported a hit through a failing read")
	}
	st := s.Stats()
	if st.GetErrors != 1 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want 1 GetError and no quarantine (the file may be fine)", st)
	}
	fs.Hook = nil
	if _, ok := s.Get("cell"); !ok {
		t.Error("entry unreadable after the transient read fault cleared")
	}
}

func TestManifestRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if s.HasManifest() {
		t.Error("fresh store claims a manifest")
	}
	m := NewManifest(s.Version())
	m.Record(CellRecord{Key: "b", Entry: "b.cell", Status: StatusDone, Source: SourceSimulated, Attempts: 1})
	m.Record(CellRecord{Key: "a", Entry: "a.cell", Status: StatusFailed, Attempts: 3, Error: "boom"})
	m.Record(CellRecord{Key: "c", Entry: "c.cell", Status: StatusCanceled, Error: "interrupted"})
	// Upsert: a resumed cell's record replaces the original.
	m.Record(CellRecord{Key: "a", Entry: "a.cell", Status: StatusDone, Source: SourceDisk})
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	if !s.HasManifest() {
		t.Fatal("HasManifest false after save")
	}
	got, err := s.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != s.Version() {
		t.Errorf("version = %q, want %q", got.Version, s.Version())
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d, want 3", got.Len())
	}
	done, failed, canceled := got.Counts()
	if done != 2 || failed != 0 || canceled != 1 {
		t.Errorf("counts = %d/%d/%d, want 2 done, 0 failed, 1 canceled", done, failed, canceled)
	}
	for i, want := range []string{"a", "b", "c"} {
		if got.Cells[i].Key != want {
			t.Errorf("cell %d key = %q, want %q (manifest must be key-sorted)", i, got.Cells[i].Key, want)
		}
	}
}

// TestManifestWithRetryAttemptsLoads: a manifest written while the
// runner still retried failed cells (testdata/manifest_attempts3.json,
// saved by that version's SaveManifest) records up to three attempts per
// cell. A campaign resumed over such a directory must still read it.
func TestManifestWithRetryAttemptsLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "manifest_attempts3.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{Version: "v1-parent"})
	if !s.HasManifest() {
		t.Fatal("HasManifest false for the fixture")
	}
	m, err := s.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != "v1-parent" || m.Len() != 5 {
		t.Fatalf("version %q, %d cells; want v1-parent, 5", m.Version, m.Len())
	}
	done, failed, canceled := m.Counts()
	if done != 3 || failed != 1 || canceled != 1 {
		t.Errorf("counts = %d/%d/%d, want 3 done, 1 failed, 1 canceled", done, failed, canceled)
	}
	attempts := map[string]int{}
	for _, c := range m.Cells {
		attempts[c.Status+"/"+c.Source] += c.Attempts
	}
	want := map[string]int{"done/disk": 0, "done/simulated": 4, "failed/": 3, "canceled/": 0}
	if !reflect.DeepEqual(attempts, want) {
		t.Errorf("attempts by status/source = %v, want %v", attempts, want)
	}
	// Saving the loaded ledger again writes the same bytes.
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("re-saved manifest differs from the fixture:\n%s", again)
	}
}

// TestManifestSaveFailureKeepsOld: the manifest rename is atomic, so a
// failed save leaves the previous ledger intact.
func TestManifestSaveFailureKeepsOld(t *testing.T) {
	errInjected := errors.New("injected fault")
	fs := &InjectFS{Base: OSFS{}}
	s := openTest(t, t.TempDir(), Options{FS: fs})
	m1 := NewManifest(s.Version())
	m1.Record(CellRecord{Key: "a", Status: StatusDone})
	if err := s.SaveManifest(m1); err != nil {
		t.Fatal(err)
	}
	m2 := NewManifest(s.Version())
	m2.Record(CellRecord{Key: "a", Status: StatusDone})
	m2.Record(CellRecord{Key: "b", Status: StatusDone})
	fs.Hook = func(op, name string) error {
		if op == "rename" {
			return errInjected
		}
		return nil
	}
	if err := s.SaveManifest(m2); !errors.Is(err, errInjected) {
		t.Fatalf("SaveManifest error = %v, want wrapped injected fault", err)
	}
	fs.Hook = nil
	got, err := s.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("manifest has %d cells after failed save, want the original 1", got.Len())
	}
}

// TestEntryNameStability pins the content address: same key and
// version always map to the same file; any ingredient change remaps.
func TestEntryNameStability(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{Version: "v"})
	s2 := openTest(t, dir, Options{Version: "v"})
	if s1.EntryName("k") != s2.EntryName("k") {
		t.Error("same key+version produced different entry names")
	}
	if s1.EntryName("k") == s1.EntryName("k2") {
		t.Error("different keys share an entry name")
	}
	s3 := openTest(t, dir, Options{Version: "v2"})
	if s1.EntryName("k") == s3.EntryName("k") {
		t.Error("different versions share an entry name")
	}
	if !strings.HasSuffix(s1.EntryName("k"), entrySuffix) {
		t.Errorf("entry name %q missing %q suffix", s1.EntryName("k"), entrySuffix)
	}
}
