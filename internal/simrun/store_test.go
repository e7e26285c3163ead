package simrun

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/store"
)

// corruptOneEntry flips one byte in the single .cell entry under dir.
func corruptOneEntry(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".cell") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no entry to corrupt")
}

// storeResults builds a small but non-trivial Results fixture (the
// Mean accumulators exercise the binary round-trip path).
func storeResults(i int) cmp.Results {
	var r cmp.Results
	r.Mode = cmp.DISCO
	r.Benchmark = "bodytrack"
	r.Algorithm = "delta"
	r.Cycles = uint64(1000 + i)
	r.AvgMissLatency = 17.25 + float64(i)
	for j := 0; j <= i%4+2; j++ {
		r.Net.PacketLatency.Add(float64(j) * 3.5)
		r.Net.QueueCycles.Add(float64(i+j) * 0.25)
	}
	return r
}

func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{Version: "simrun-test"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskTierReplaysAcrossRunners is the resume contract at the
// runner level: a second runner (a new "process") over the same cache
// directory replays the first runner's results from disk, bit-exact,
// without re-simulating.
func TestDiskTierReplaysAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	want := storeResults(1)
	run := func() (cmp.Results, error) {
		execs.Add(1)
		return want, nil
	}

	r1 := New(2, true)
	r1.SetStore(testStore(t, dir))
	got, err := r1.Submit(testKey(1), run).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first run returned wrong results")
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}

	r2 := New(2, true)
	r2.SetStore(testStore(t, dir))
	got2, err := r2.Submit(testKey(1), run).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Error("disk replay is not bit-exact")
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("executions = %d after replay, want still 1", n)
	}
	st := r2.Stats()
	if st.DiskHits != 1 || st.Executed != 0 {
		t.Errorf("stats = %+v, want 1 disk hit and 0 executions", st)
	}
}

// TestVolatileCellsNeverPersist: externally-streamed cells are not
// captured by the fingerprint, so they must bypass the disk tier in
// both directions.
func TestVolatileCellsNeverPersist(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	key.Volatile = true
	var execs atomic.Int32
	run := func() (cmp.Results, error) {
		execs.Add(1)
		return storeResults(2), nil
	}
	for _, r := range []*Runner{New(1, true), New(1, true)} {
		r.SetStore(testStore(t, dir))
		if _, err := r.Submit(key, run).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("executions = %d, want 2 (volatile cells always run)", n)
	}
	if s := testStore(t, dir); true {
		if _, ok := s.Get(key.Canonical()); ok {
			t.Error("a volatile cell was persisted")
		}
	}
}

// TestErroredCellsNeverMemoizedOrPersisted is the regression test for
// the failure-memoization hazard: a failed cell must vanish from the
// in-process memo and must never reach the disk tier, so a later
// campaign retries it instead of replaying the failure.
func TestErroredCellsNeverMemoizedOrPersisted(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	key := testKey(1)

	r1 := New(1, true)
	r1.SetStore(testStore(t, dir))
	if _, err := r1.Submit(key, func() (cmp.Results, error) {
		return cmp.Results{}, boom
	}).Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	r1.mu.Lock()
	_, memoized := r1.cache[key]
	r1.mu.Unlock()
	if memoized {
		t.Error("errored cell left in the memo cache")
	}
	if _, ok := testStore(t, dir).Get(key.Canonical()); ok {
		t.Error("errored cell persisted to the disk tier")
	}

	// A fresh runner over the same store re-executes instead of
	// replaying anything.
	var execs atomic.Int32
	want := storeResults(3)
	r2 := New(1, true)
	r2.SetStore(testStore(t, dir))
	got, err := r2.Submit(key, func() (cmp.Results, error) {
		execs.Add(1)
		return want, nil
	}).Wait()
	if err != nil || execs.Load() != 1 {
		t.Fatalf("retry after failure: err=%v execs=%d, want success on a real execution", err, execs.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("retry returned wrong results")
	}
}

// TestPanickingCellRunsOnce: a cell is deterministic, so its panic is
// not retried. The closure runs exactly once, its future fails with a
// *CellError wrapping the *PanicError, nothing reaches the disk tier,
// and the cells queued behind it are canceled without running.
func TestPanickingCellRunsOnce(t *testing.T) {
	dir := t.TempDir()
	r := New(1, true)
	r.SetStore(testStore(t, dir))
	var outcomes []Outcome
	var mu sync.Mutex
	r.SetObserver(func(out Outcome) {
		mu.Lock()
		outcomes = append(outcomes, out)
		mu.Unlock()
	})
	var runs atomic.Int32
	release := make(chan struct{})
	key := testKey(0)
	first := r.Submit(key, func() (cmp.Results, error) {
		runs.Add(1)
		<-release // hold the worker until the rest are queued
		panic("wedged configuration")
	})
	var queued []*Future
	for i := 1; i <= 2; i++ {
		queued = append(queued, r.Submit(testKey(i), func() (cmp.Results, error) {
			t.Error("a cell queued behind a failure ran")
			return cmp.Results{}, nil
		}))
	}
	close(release)

	_, err := first.Wait()
	var ce *CellError
	if !errors.As(err, &ce) || ce.Key != key {
		t.Fatalf("err = %v, want *CellError for %v", err, key)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "wedged configuration" {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	for i, f := range queued {
		if _, err := f.Wait(); !errors.As(err, &ce) || !errors.As(err, &pe) {
			t.Errorf("queued cell %d: err = %v, want cancellation wrapping the cell failure", i+1, err)
		}
	}
	r.Quiesce()
	if n := runs.Load(); n != 1 {
		t.Errorf("panicking closure ran %d times, want 1", n)
	}
	if st := r.Stats(); st.Executed != 1 || st.Done != 3 {
		t.Errorf("stats = %+v, want 1 executed / 3 done", st)
	}
	if _, ok := testStore(t, dir).Get(key.Canonical()); ok {
		t.Error("failed cell persisted to the disk tier")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 3 || outcomes[0].Key != key || outcomes[0].Attempts != 1 {
		t.Fatalf("outcomes = %+v, want the failed cell first with 1 attempt", outcomes)
	}
	for _, out := range outcomes[1:] {
		if out.Attempts != 0 || out.Err == nil {
			t.Errorf("canceled outcome = %+v, want 0 attempts and an error", out)
		}
	}
}

// TestInterruptDrains: Interrupt lets the in-flight cell finish (and
// persist), cancels the queued remainder with ErrInterrupted, and
// Quiesce blocks until everything settles. The observer sees every
// distinct cell exactly once with the right disposition.
func TestInterruptDrains(t *testing.T) {
	dir := t.TempDir()
	r := New(1, true)
	r.SetStore(testStore(t, dir))
	var outcomes atomic.Int32
	var canceledOutcomes atomic.Int32
	r.SetObserver(func(out Outcome) {
		outcomes.Add(1)
		if out.Err != nil {
			if !errors.Is(out.Err, ErrInterrupted) {
				t.Errorf("canceled outcome error = %v, want wrapped ErrInterrupted", out.Err)
			}
			if out.Attempts != 0 {
				t.Errorf("canceled outcome attempts = %d, want 0", out.Attempts)
			}
			canceledOutcomes.Add(1)
		}
	})
	release := make(chan struct{})
	started := make(chan struct{})
	want := storeResults(5)
	first := r.Submit(testKey(0), func() (cmp.Results, error) {
		close(started)
		<-release
		return want, nil
	})
	var rest []*Future
	for i := 1; i < 4; i++ {
		i := i
		rest = append(rest, r.Submit(testKey(i), func() (cmp.Results, error) {
			return storeResults(i), nil
		}))
	}
	<-started
	r.Interrupt()
	close(release)
	r.Quiesce()

	if got, err := first.Wait(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("in-flight cell did not finish cleanly: err=%v", err)
	}
	if _, ok := testStore(t, dir).Get(testKey(0).Canonical()); !ok {
		t.Error("in-flight cell's result not persisted before shutdown")
	}
	for i, f := range rest {
		if _, err := f.Wait(); !errors.Is(err, ErrInterrupted) {
			t.Errorf("queued cell %d: err = %v, want wrapped ErrInterrupted", i+1, err)
		}
		if _, ok := testStore(t, dir).Get(testKey(i + 1).Canonical()); ok {
			t.Errorf("canceled cell %d was persisted", i+1)
		}
	}
	// Submissions after the drain cancel immediately too.
	if _, err := r.Submit(testKey(9), func() (cmp.Results, error) {
		t.Error("post-drain submission executed")
		return cmp.Results{}, nil
	}).Wait(); !errors.Is(err, ErrInterrupted) {
		t.Errorf("post-drain submission err = %v, want wrapped ErrInterrupted", err)
	}
	if st := r.Stats(); st.Done != 5 {
		t.Errorf("done = %d, want 5", st.Done)
	}
	if outcomes.Load() != 5 || canceledOutcomes.Load() != 4 {
		t.Errorf("observer saw %d outcomes (%d canceled), want 5 (4 canceled)",
			outcomes.Load(), canceledOutcomes.Load())
	}
}

// TestQuarantinedEntryRecomputes wires the corruption path through the
// runner: a corrupt entry must be quarantined and transparently
// recomputed, surfacing in Stats.Quarantined.
func TestQuarantinedEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	want := storeResults(6)
	s1 := testStore(t, dir)
	if err := s1.Put(key.Canonical(), want); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk (flip one byte mid-file).
	corruptOneEntry(t, dir)

	var execs atomic.Int32
	r := New(1, true)
	r.SetStore(testStore(t, dir))
	got, err := r.Submit(key, func() (cmp.Results, error) {
		execs.Add(1)
		return want, nil
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Error("corrupt entry was not recomputed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed results are wrong")
	}
	st := r.Stats()
	if st.Quarantined != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 quarantined / 0 disk hits", st)
	}
	// The recomputed result was re-persisted: a fresh runner replays it.
	r2 := New(1, true)
	r2.SetStore(testStore(t, dir))
	if _, err := r2.Submit(key, func() (cmp.Results, error) {
		t.Error("replay after recompute executed the cell")
		return cmp.Results{}, nil
	}).Wait(); err != nil {
		t.Fatal(err)
	}
}
