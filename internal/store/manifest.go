package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
)

// ManifestName is the campaign manifest's file name inside a cache
// directory.
const ManifestName = "manifest.json"

// Cell statuses recorded in a manifest.
const (
	StatusDone     = "done"     // results produced (simulated or replayed)
	StatusFailed   = "failed"   // the cell ran and failed
	StatusCanceled = "canceled" // never ran: queue canceled or drained
)

// Cell sources recorded in a manifest.
const (
	SourceSimulated = "simulated" // computed in this campaign
	SourceDisk      = "disk"      // replayed from the persistent store
)

// CellRecord is one campaign cell's outcome.
type CellRecord struct {
	// Key identifies the cell: its full canonical key
	// (simrun.Key.Canonical). Manifests written before records were
	// keyed that way carry the shorter simrun.Key.String, which omits
	// the configuration; they load as is.
	Key string `json:"key"`
	// Entry is the store file basename the cell's results live under.
	Entry string `json:"entry"`
	// Status is done, failed or canceled.
	Status string `json:"status"`
	// Source distinguishes simulated results from disk replays (set for
	// done cells only).
	Source string `json:"source,omitempty"`
	// Attempts is 1 for a simulated or failed cell and 0 (omitted) for
	// disk hits and canceled cells. Manifests written while the runner
	// still retried failed cells carry values up to 3; they load as is.
	Attempts int `json:"attempts,omitempty"`
	// Error is the terminal error text for failed/canceled cells.
	Error string `json:"error,omitempty"`
}

// Manifest records a campaign's distinct cells and their outcomes —
// the resumability ledger a killed campaign leaves behind. Durability
// of results lives in the store entries themselves; the manifest is
// the human- and tool-readable account of what happened. It is safe
// for concurrent use.
type Manifest struct {
	mu sync.Mutex
	// Version is the code-version stamp the campaign ran under.
	Version string `json:"version"`
	// Cells holds one record per distinct cell, sorted by key on save.
	Cells []CellRecord `json:"cells"`
}

// NewManifest returns an empty manifest for the given version stamp.
func NewManifest(version string) *Manifest { return &Manifest{Version: version} }

// Record upserts one cell's record (keyed by CellRecord.Key).
func (m *Manifest) Record(rec CellRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.Cells {
		if m.Cells[i].Key == rec.Key {
			m.Cells[i] = rec
			return
		}
	}
	m.Cells = append(m.Cells, rec)
}

// Counts tallies the records by status: done, failed, canceled.
func (m *Manifest) Counts() (done, failed, canceled int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.Cells {
		switch c.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusCanceled:
			canceled++
		}
	}
	return done, failed, canceled
}

// Len returns the number of recorded cells.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.Cells)
}

// SaveManifest writes m into the store's directory with the same
// atomic temp-fsync-rename protocol entries use.
func (s *Store) SaveManifest(m *Manifest) error {
	m.mu.Lock()
	sort.Slice(m.Cells, func(i, j int) bool { return m.Cells[i].Key < m.Cells[j].Key })
	data, err := json.MarshalIndent(struct {
		Version string       `json:"version"`
		Cells   []CellRecord `json:"cells"`
	}{m.Version, m.Cells}, "", "  ")
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	final := filepath.Join(s.dir, ManifestName)
	s.mu.Lock()
	s.seq++
	tmp := fmt.Sprintf("%s.tmp.%d.%d", final, s.pid, s.seq)
	s.mu.Unlock()
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create manifest temp: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: fsync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: close manifest: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: commit manifest: %w", err)
	}
	return s.fs.SyncDir(s.dir)
}

// LoadManifest reads the manifest from the store's directory. A
// missing file returns (nil, os.ErrNotExist)-wrapped error; a corrupt
// manifest is an error (the caller decides whether to start fresh —
// result durability never depends on it).
func (s *Store) LoadManifest() (*Manifest, error) {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &struct {
		Version *string       `json:"version"`
		Cells   *[]CellRecord `json:"cells"`
	}{&m.Version, &m.Cells}); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	return &m, nil
}

// HasManifest reports whether the store directory holds a readable
// manifest.
func (s *Store) HasManifest() bool {
	_, err := s.fs.ReadFile(filepath.Join(s.dir, ManifestName))
	return err == nil
}
