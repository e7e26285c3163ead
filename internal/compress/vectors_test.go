package compress

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The versioned compressed-block test-vector corpus (ROADMAP item 5,
// NoiseGo discipline): one committed JSON file per registered codec
// holding (input block, exact compressed bytes) golden pairs. The
// corpus is the interop contract — a distributed worker or an
// independent reimplementation proves codec equivalence by reproducing
// these bytes, and TestCorpusMatchesEncoders makes silent drift of the
// encodings a test failure in this repo first.
//
// Regenerate after an INTENTIONAL format change with
//
//	go test ./internal/compress -run TestCorpusMatchesEncoders -args -update-vectors
//
// and bump corpusFormat when the vector file layout itself changes.

// corpusFormat versions the vector FILE layout (not the codec
// bitstreams — those are pinned by the vector payloads themselves).
const corpusFormat = 1

var updateVectors = flag.Bool("update-vectors", false,
	"rewrite internal/compress/testdata/vectors from the current encoders")

// vectorFile is one codec's committed corpus document.
type vectorFile struct {
	Format int    `json:"format"`
	Codec  string `json:"codec"`
	// TrainedOn documents the deterministic training rule for adaptive
	// codecs: "corpus" means a fresh instance Train()ed on the full
	// corpus input set, in order; "" means the codec is stateless.
	TrainedOn string       `json:"trained_on,omitempty"`
	Vectors   []vectorCase `json:"vectors"`
}

// vectorCase is one golden (input, exact output) pair.
type vectorCase struct {
	Name     string `json:"name"`
	Input    string `json:"input"` // hex, exactly BlockSize bytes
	SizeBits int    `json:"size_bits"`
	Stored   bool   `json:"stored"`
	Payload  string `json:"payload"` // hex, the exact encoder output
}

// corpusInputs is the fixed input-block set: the edge blocks named in
// the roadmap plus pattern blocks that exercise every codec's
// compressible cases and a pseudorandom incompressible block.
func corpusInputs() []struct {
	name  string
	block []byte
} {
	mk := func(fill func(b []byte)) []byte {
		b := make([]byte, BlockSize)
		fill(b)
		return b
	}
	seed := uint64(0xDA7A_C0DE_D15C_0001)
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	return []struct {
		name  string
		block []byte
	}{
		{"all-zero", mk(func(b []byte) {})},
		{"all-ones", mk(func(b []byte) {
			for i := range b {
				b[i] = 0xFF
			}
		})},
		// 32-bit words alternating +1 / -1: sign-extension patterns for
		// FPC/SFPC, alternating-sign deltas for the delta family.
		{"alternating-sign", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += 2 * WordSize {
				binary.LittleEndian.PutUint32(b[i:], 1)
				binary.LittleEndian.PutUint32(b[i+WordSize:], ^uint32(0))
			}
		})},
		// 8-byte flits stepping by the widest delta that still fits the
		// paper's 1..7-byte delta widths: ±(2^55 - 1) around a base.
		{"max-width-deltas", mk(func(b []byte) {
			base := uint64(0x4000_0000_0000_0000)
			step := uint64(1)<<55 - 1
			for i := 0; i < BlockSize; i += FlitBytes {
				v := base
				if (i/FlitBytes)%2 == 1 {
					v = base + step
				}
				binary.LittleEndian.PutUint64(b[i:], v)
			}
		})},
		// Small-magnitude counters: the delta sweet spot.
		{"small-delta-ramp", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += FlitBytes {
				binary.LittleEndian.PutUint64(b[i:], 0x1000_0000+uint64(i)*3)
			}
		})},
		// One 32-bit value repeated: FVC/SC² table hit, BDI zero-delta.
		{"repeated-word", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += WordSize {
				binary.LittleEndian.PutUint32(b[i:], 0xDEADBEEF)
			}
		})},
		// 4-byte base + small positive offsets: the classic BDI block.
		{"bdi-base4-delta1", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += WordSize {
				binary.LittleEndian.PutUint32(b[i:], 0x0808_0000+uint32(i/WordSize))
			}
		})},
		// Zero runs interleaved with small words: FPC's prefix patterns.
		{"fpc-mixed-patterns", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += 2 * WordSize {
				binary.LittleEndian.PutUint32(b[i:], 0)
				binary.LittleEndian.PutUint32(b[i+WordSize:], uint32(int32(-5-int32(i))))
			}
		})},
		// Upper-half of each 32-bit word constant: half-flit deltas.
		{"half-flit-friendly", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += WordSize {
				binary.LittleEndian.PutUint32(b[i:], 0xABCD_0000|uint32(i*7))
			}
		})},
		// Pseudorandom: every codec must fall back to a stored block and
		// say so identically forever.
		{"pseudorandom", mk(func(b []byte) {
			for i := 0; i < BlockSize; i += 8 {
				binary.LittleEndian.PutUint64(b[i:], next())
			}
		})},
	}
}

// corpusAlgorithm returns the codec instance the corpus pins: fresh,
// and for adaptive codecs deterministically trained on the corpus
// inputs themselves (in order). trained reports whether that rule
// applied.
func corpusAlgorithm(t *testing.T, name string) (alg Algorithm, trained bool) {
	t.Helper()
	alg, err := New(name)
	if err != nil {
		t.Fatalf("corpus codec %q: %v", name, err)
	}
	tr, ok := alg.(interface{ Train([][]byte) })
	if !ok {
		return alg, false
	}
	inputs := corpusInputs()
	samples := make([][]byte, len(inputs))
	for i, in := range inputs {
		samples[i] = in.block
	}
	tr.Train(samples)
	return alg, true
}

func vectorsDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "vectors")
}

// TestCorpusMatchesEncoders is the drift gate: every committed vector
// must match the current encoder bit for bit, decode back to its input,
// and every registered codec must have a committed file covering every
// corpus input. With -update-vectors it rewrites the files instead.
func TestCorpusMatchesEncoders(t *testing.T) {
	if *updateVectors {
		writeVectorCorpus(t)
	}
	inputs := corpusInputs()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(vectorsDir(t), name+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing corpus file (regenerate with -update-vectors): %v", err)
			}
			var vf vectorFile
			if err := json.Unmarshal(data, &vf); err != nil {
				t.Fatalf("corrupt corpus file %s: %v", path, err)
			}
			if vf.Format != corpusFormat {
				t.Fatalf("corpus format %d, this tree expects %d", vf.Format, corpusFormat)
			}
			if vf.Codec != name {
				t.Fatalf("corpus file %s claims codec %q", path, vf.Codec)
			}
			if len(vf.Vectors) != len(inputs) {
				t.Fatalf("corpus has %d vectors, the input set has %d (regenerate)", len(vf.Vectors), len(inputs))
			}
			alg, trained := corpusAlgorithm(t, name)
			if trained && vf.TrainedOn != "corpus" {
				t.Fatalf("adaptive codec %s: trained_on=%q, want \"corpus\"", name, vf.TrainedOn)
			}
			for i, v := range vf.Vectors {
				if v.Name != inputs[i].name {
					t.Fatalf("vector %d is %q, input set has %q (order is part of the contract)", i, v.Name, inputs[i].name)
				}
				input, err := hex.DecodeString(v.Input)
				if err != nil || len(input) != BlockSize {
					t.Fatalf("vector %q: bad input hex", v.Name)
				}
				if !bytes.Equal(input, inputs[i].block) {
					t.Fatalf("vector %q: committed input differs from the generator's", v.Name)
				}
				wantPayload, err := hex.DecodeString(v.Payload)
				if err != nil {
					t.Fatalf("vector %q: bad payload hex", v.Name)
				}
				c := alg.AppendCompress(nil, input)
				if c.SizeBits != v.SizeBits || c.Stored != v.Stored || !bytes.Equal(c.Payload, wantPayload) {
					t.Errorf("vector %q drifted: got (%d bits, stored=%v, %x), committed (%d bits, stored=%v, %x)",
						v.Name, c.SizeBits, c.Stored, c.Payload, v.SizeBits, v.Stored, wantPayload)
				}
				// The corpus also pins the decoder: committed bytes must
				// decode back to the committed input.
				got, err := decode(alg, Compressed{Alg: name, SizeBits: v.SizeBits, Stored: v.Stored, Payload: wantPayload})
				if err != nil {
					t.Errorf("vector %q: committed payload does not decode: %v", v.Name, err)
				} else if !bytes.Equal(got, input) {
					t.Errorf("vector %q: committed payload decodes to the wrong block", v.Name)
				}
			}
		})
	}
}

// writeVectorCorpus regenerates every codec's vector file from the
// current encoders.
func writeVectorCorpus(t *testing.T) {
	t.Helper()
	dir := vectorsDir(t)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		alg, trained := corpusAlgorithm(t, name)
		vf := vectorFile{Format: corpusFormat, Codec: name}
		if trained {
			vf.TrainedOn = "corpus"
		}
		for _, in := range corpusInputs() {
			c := alg.AppendCompress(nil, in.block)
			vf.Vectors = append(vf.Vectors, vectorCase{
				Name:     in.name,
				Input:    hex.EncodeToString(in.block),
				SizeBits: c.SizeBits,
				Stored:   c.Stored,
				Payload:  hex.EncodeToString(c.Payload),
			})
		}
		data, err := json.MarshalIndent(vf, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s (%d vectors)\n", path, len(vf.Vectors))
	}
}
