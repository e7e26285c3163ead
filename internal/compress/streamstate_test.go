package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// bulkBlocks is the bulk stream population of the root package's
// retrain benchmarks: block by block in turn, drifting 64-bit counters,
// one repeated 32-bit word, zeros and pseudorandom words. 16384 blocks
// (1 MiB, the discod bulk stream length) hold about 80k distinct words.
func bulkBlocks(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	counter := rng.Uint64()
	blocks := make([][]byte, n)
	buf := make([]byte, n*BlockSize)
	for i := range blocks {
		blk := buf[i*BlockSize : (i+1)*BlockSize : (i+1)*BlockSize]
		switch i % 4 {
		case 0:
			for j := 0; j < len(blk); j += 8 {
				binary.LittleEndian.PutUint64(blk[j:], counter+uint64(j))
			}
			counter += uint64(i%7) + 1
		case 1:
			v := rng.Uint32()
			for j := 0; j < len(blk); j += 4 {
				binary.LittleEndian.PutUint32(blk[j:], v)
			}
		case 3:
			for j := 0; j < len(blk); j += 8 {
				binary.LittleEndian.PutUint64(blk[j:], rng.Uint64())
			}
		}
		blocks[i] = blk
	}
	return blocks
}

// TestStatefulStreamDigest pins every frame a trainable codec's stream
// encoder emits over 64 retrains of the bulk population: the SHA-256 of
// each frame's mode, size and payload in stream order. The stateless
// encodings are pinned by the vector corpus; this pins the tables the
// two stream ends rebuild, which never travel on the wire. Each frame
// must also decode to its block on a mirrored decoder.
func TestStatefulStreamDigest(t *testing.T) {
	want := map[string]string{
		"sc2": "41f8e7fc5d520ed3f78cd27e971a9bd246ff8d1c033a794a7faf1a4617094e63",
		"fvc": "ea6ef58fd95d508e15d9e7e01c271a0b49c76db6ef2b303596ba81e19cfb223c",
	}
	blocks := bulkBlocks(64 * retrainEvery)
	for _, name := range []string{"sc2", "fvc"} {
		t.Run(name, func(t *testing.T) {
			ea, _ := New(name)
			da, _ := New(name)
			enc, dec := NewStateful(ea), NewStateful(da)
			h := sha256.New()
			var hdr [3]byte
			for i, b := range blocks {
				f := enc.Encode(b)
				hdr[0] = byte(f.Mode)
				binary.LittleEndian.PutUint16(hdr[1:], uint16(f.SizeBits))
				h.Write(hdr[:])
				h.Write(f.Payload)
				got, err := dec.Decode(f)
				if err != nil || !bytes.Equal(got, b) {
					t.Fatalf("block %d (mode %d): %v", i, f.Mode, err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("%s stream digest %s, want %s", name, got, want[name])
			}
		})
	}
}

// TestStatefulStreamFootprint bounds what one trainable stream costs:
// the allocations of a fresh encoder carried through 1024 and 16384
// blocks of the bulk population, and the heap it still holds afterwards
// (histogram, index and tables; the pooled retrain scratch is dropped
// by the two collections before each reading). The fresh rows' bounds
// are the figures of the map-indexed histogram that ranked every value
// on each retrain. A recycled row carries the same blocks through an
// encoder that has carried them before and been Reset: within
// histKeepEntries it regrows nothing, and it holds what the fresh
// encoder held. A 16384-block histogram (~80k entries) outgrows that
// bound and is dropped on Reset, so those rows regrow it. The bounds
// are the figures recorded when Reset started keeping the codec's
// memory (0/77/0/68 allocs; 270/1705/110/1545 KB), the heap bound with
// a few KB of slack for the runtime's own.
func TestStatefulStreamFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	blocks := bulkBlocks(64 * retrainEvery)
	for _, c := range []struct {
		name       string
		blocks     int
		recycled   bool
		allocs     float64
		retainedKB int64
	}{
		{"sc2", 1024, false, 108, 328},
		{"sc2", 16384, false, 612, 2398},
		{"fvc", 1024, false, 96, 153},
		{"fvc", 16384, false, 600, 2223},
		{"sc2", 1024, true, 0, 280},
		{"sc2", 16384, true, 77, 1750},
		{"fvc", 1024, true, 0, 115},
		{"fvc", 16384, true, 68, 1580},
	} {
		label := fmt.Sprintf("%s/%d", c.name, c.blocks)
		if c.recycled {
			label += "/recycled"
		}
		t.Run(label, func(t *testing.T) {
			var s *Stateful
			run := func() *Stateful {
				if c.recycled && s != nil {
					s.Reset()
				} else {
					alg, _ := New(c.name)
					s = NewStateful(alg)
				}
				for _, b := range blocks[:c.blocks] {
					s.Encode(b)
				}
				return s
			}
			// No collection during the count, so the pooled retrain
			// scratch the warm-up run leaves behind is reused (and a
			// recycled row's warm-up run is the stream it recycles).
			gc := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(1, func() { run() })
			debug.SetGCPercent(gc)

			var before, after runtime.MemStats
			s = nil
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			kept := run()
			if c.recycled {
				kept = run()
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(kept)
			retainedKB := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) >> 10
			t.Logf("%s: %.0f allocs, %d KB retained", label, allocs, retainedKB)
			if allocs > c.allocs || retainedKB > c.retainedKB {
				t.Errorf("%s: %.0f allocs and %d KB retained, want at most %.0f and %d KB",
					label, allocs, retainedKB, c.allocs, c.retainedKB)
			}
		})
	}
}

// TestStatefulRecycledMatchesFresh: a Stateful Reset after a long stream
// is a new one to its peer. For every codec, a pair carries the
// 16384-block bulk stream, both ends are Reset, and the pair carries a
// 1024-block stream in one direction — the same way as before, or
// turned round so the old encoder decodes. Every frame and every
// decoded block equals a fresh pair's.
func TestStatefulRecycledMatchesFresh(t *testing.T) {
	long := bulkBlocks(64 * retrainEvery)
	short := streamBlocks(4 * retrainEvery)
	newPair := func(name string) (*Stateful, *Stateful) {
		ea, _ := New(name)
		da, _ := New(name)
		return NewStateful(ea), NewStateful(da)
	}
	for _, name := range Names() {
		for _, turned := range []bool{false, true} {
			label := name + "/same-way"
			if turned {
				label = name + "/turned"
			}
			t.Run(label, func(t *testing.T) {
				enc, dec := newPair(name)
				for i, b := range long {
					if _, err := dec.Decode(enc.Encode(b)); err != nil {
						t.Fatalf("long stream block %d: %v", i, err)
					}
				}
				enc.Reset()
				dec.Reset()
				if turned {
					enc, dec = dec, enc
				}
				fenc, fdec := newPair(name)
				for i, b := range short {
					got, want := enc.Encode(b), fenc.Encode(b)
					if got.Mode != want.Mode || got.SizeBits != want.SizeBits || !bytes.Equal(got.Payload, want.Payload) {
						t.Fatalf("block %d: recycled frame (mode %d, %d bits) differs from a fresh encoder's (mode %d, %d bits)",
							i, got.Mode, got.SizeBits, want.Mode, want.SizeBits)
					}
					out, err := dec.Decode(got)
					if err != nil || !bytes.Equal(out, b) {
						t.Fatalf("block %d: recycled decoder: %v", i, err)
					}
					if out, err := fdec.Decode(want); err != nil || !bytes.Equal(out, b) {
						t.Fatalf("block %d: fresh decoder: %v", i, err)
					}
				}
				if enc.Blocks() != uint64(len(short)) || dec.Blocks() != uint64(len(short)) {
					t.Fatalf("recycled pair counted %d/%d blocks, want %d", enc.Blocks(), dec.Blocks(), len(short))
				}
			})
		}
	}
}
