package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/disco-sim/disco/internal/simrun"
)

// TestExperimentCellOrderDigest pins which cells every experiment
// submits, their keys and the order they run in. On a one-worker runner
// the observer sees each distinct cell in FIFO submission order, so the
// SHA-256 of its Key.Canonical() sequence and the runner's counters fix
// the whole grid. The digests and counts were recorded before the
// harnesses shared one cell builder and must not be edited to make a
// refactor pass.
func TestExperimentCellOrderDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every cell-submitting experiment")
	}
	type want struct {
		digest                    string
		submitted, hits, executed uint64
	}
	cases := []struct {
		name string
		run  func(Opts) error
		want want
	}{
		{"all", func(o Opts) error { _, err := RunAll(o); return err },
			want{"46fbba73003b2f1decbb75424ebe5f65267a8870a9e62fa2f30f70398d7bad89", 34, 8, 26}},
		{"calibrate", func(o Opts) error { _, err := CalibrateThresholds(o, nil, nil); return err },
			want{"126df27d350e90a291568886de12359ded5057277ca8e5a98c4e29a4b00a0389", 13, 0, 13}},
		{"motivation", func(o Opts) error { _, err := Motivation(o); return err },
			want{"0d72a9334e44a03802578d58b6dd1ee7037ef6707ae167b9d08d353238f36341", 1, 0, 1}},
		{"sensitivity", func(o Opts) error { _, err := Sensitivity(o); return err },
			want{"40aef951433d9fc8c3f61c709b2e1e521155bfe53f3f86c8c1cf6212080fb00b", 18, 0, 18}},
		{"composition", func(o Opts) error { _, err := Composition(o); return err },
			want{"d5e6abe4b6c9e49900173915fd0b153a67d7d4b0f53acf140f4873dbff96d30b", 5, 0, 5}},
		{"csv", func(o Opts) error { return BatchCSV(o, "delta", io.Discard) },
			want{"d5e6abe4b6c9e49900173915fd0b153a67d7d4b0f53acf140f4873dbff96d30b", 5, 0, 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := simrun.New(1, true)
			var (
				mu   sync.Mutex
				keys []string
			)
			r.SetObserver(func(out simrun.Outcome) {
				mu.Lock()
				keys = append(keys, out.Key.Canonical())
				mu.Unlock()
			})
			o := Opts{Ops: 300, Warmup: 150, Seed: 1, Benchmarks: []string{"swaptions"}, Runner: r}
			if err := c.run(o); err != nil {
				t.Fatal(err)
			}
			// A future completes before its cell's outcome reaches the
			// observer, so wait for the worker to finish reporting.
			r.Quiesce()
			mu.Lock()
			sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
			mu.Unlock()
			st := r.Stats()
			got := want{hex.EncodeToString(sum[:]), st.Submitted, st.Hits, st.Executed}
			if got != c.want {
				t.Errorf("cells %+v, want %+v", got, c.want)
			}
		})
	}
}
