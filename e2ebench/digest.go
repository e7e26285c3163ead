package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectedJSON pins the SHA-256 of every simulation's Results JSON and of
// every campaign report, per workload and seed. Regenerate with
// `go test -run TestUpdateExpected -update-expected` in this directory.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// digestCheck checks a workload's outputs: each must match the digest
// pinned for this seed, when there is one, and the first rep's.
type digestCheck struct {
	pinned map[string]string // nil when the seed is not pinned
	seen   map[string]string
	order  []string
}

func newDigestCheck(name string, pr params) (*digestCheck, error) {
	var pins map[string]map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	d := &digestCheck{seen: make(map[string]string)}
	if !pr.tiny {
		d.pinned = pins[name][strconv.FormatInt(pr.seed, 10)]
	}
	return d, nil
}

// check records data's digest under key and reports whether it is right.
func (d *digestCheck) check(key string, data []byte) bool {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if prev, ok := d.seen[key]; ok {
		return got == prev
	}
	d.seen[key] = got
	d.order = append(d.order, key)
	if d.pinned == nil {
		return true
	}
	if want := d.pinned[key]; got != want {
		fmt.Fprintf(os.Stderr, "e2ebench: %s digest %s, pinned %s\n", key, got, want)
		return false
	}
	return true
}

// digests lists "key sha256" in first-seen order.
func (d *digestCheck) digests() []string {
	out := make([]string, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, k+" "+d.seen[k])
	}
	return out
}
