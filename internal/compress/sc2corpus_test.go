package compress

// SC2 corpus golden test: a committed corpus of sampled blocks, each
// paired with the exact Compressed output (size, stored flag, payload
// bytes) of the trained encoder AT THE TIME THE CORPUS WAS GENERATED —
// before the word-parallel kernel rewrite. The test proves the rewritten
// encoder is byte-identical on real-looking data, independently of the
// differential fuzzer. Regenerate (only when the SC2 *format* changes
// deliberately, never for a perf rewrite) with:
//
//	SC2_CORPUS_UPDATE=1 go test ./internal/compress -run TestSC2CorpusGolden
import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sc2CorpusPath = "testdata/sc2_corpus.txt"

// sc2CorpusValuePool is the deterministic 32-bit value universe the
// corpus draws from; a skewed pick makes low indices frequent so the
// trained table has both short codes and escapes.
func sc2CorpusValuePool() []uint32 {
	rng := rand.New(rand.NewSource(1729))
	pool := make([]uint32, 600)
	for i := range pool {
		pool[i] = rng.Uint32()
	}
	// Sprinkle in hardware-typical values.
	pool[0], pool[1], pool[2], pool[3] = 0, 1, 0xFFFFFFFF, 0x7F3A1234
	return pool
}

func sc2CorpusPick(rng *rand.Rand, pool []uint32) uint32 {
	f := rng.Float64()
	return pool[int(f*f*float64(len(pool)))]
}

// sc2CorpusTrainingBlocks is the deterministic training set.
func sc2CorpusTrainingBlocks() [][]byte {
	rng := rand.New(rand.NewSource(271828))
	pool := sc2CorpusValuePool()
	blocks := make([][]byte, 0, 128)
	for n := 0; n < 128; n++ {
		b := make([]byte, BlockSize)
		for i := 0; i < BlockSize; i += WordSize {
			binary.LittleEndian.PutUint32(b[i:], sc2CorpusPick(rng, pool))
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// sc2CorpusSampleBlocks is the deterministic sampled-block corpus:
// mostly table hits with escape noise, plus all-zero, single-value and
// incompressible extremes (the last exercising the stored bail-out).
func sc2CorpusSampleBlocks() [][]byte {
	rng := rand.New(rand.NewSource(314159))
	pool := sc2CorpusValuePool()
	blocks := make([][]byte, 0, 96)
	for n := 0; n < 90; n++ {
		b := make([]byte, BlockSize)
		for i := 0; i < BlockSize; i += WordSize {
			v := sc2CorpusPick(rng, pool)
			if rng.Intn(5) == 0 {
				v = rng.Uint32() // likely escape
			}
			binary.LittleEndian.PutUint32(b[i:], v)
		}
		blocks = append(blocks, b)
	}
	blocks = append(blocks, make([]byte, BlockSize))
	one := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += WordSize {
		binary.LittleEndian.PutUint32(one[i:], pool[0])
	}
	blocks = append(blocks, one)
	for n := 0; n < 4; n++ {
		b := make([]byte, BlockSize)
		rng.Read(b)
		blocks = append(blocks, b)
	}
	return blocks
}

func sc2CorpusEncoder() *SC2 {
	s := NewSC2()
	s.Train(sc2CorpusTrainingBlocks())
	return s
}

func sc2CorpusLine(block []byte, c Compressed) string {
	st := 0
	if c.Stored {
		st = 1
	}
	return fmt.Sprintf("%d %d %s %s", st, c.SizeBits,
		hex.EncodeToString(block), hex.EncodeToString(c.Payload))
}

func TestSC2CorpusGolden(t *testing.T) {
	s := sc2CorpusEncoder()
	samples := sc2CorpusSampleBlocks()
	if os.Getenv("SC2_CORPUS_UPDATE") == "1" {
		var sb strings.Builder
		sb.WriteString("# stored sizeBits blockHex payloadHex — one line per sampled block.\n")
		for _, b := range samples {
			sb.WriteString(sc2CorpusLine(b, s.AppendCompress(nil, b)))
			sb.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(sc2CorpusPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sc2CorpusPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d corpus lines", len(samples))
		return
	}
	f, err := os.Open(sc2CorpusPath)
	if err != nil {
		t.Fatalf("open corpus (regenerate with SC2_CORPUS_UPDATE=1): %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 4 {
			t.Fatalf("corpus line %d: want 4 fields, got %d", n, len(parts))
		}
		wantStored := parts[0] == "1"
		wantBits, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("corpus line %d: bad size: %v", n, err)
		}
		block, err := hex.DecodeString(parts[2])
		if err != nil {
			t.Fatalf("corpus line %d: bad block hex: %v", n, err)
		}
		wantPayload, err := hex.DecodeString(parts[3])
		if err != nil {
			t.Fatalf("corpus line %d: bad payload hex: %v", n, err)
		}
		if n >= len(samples) || !bytes.Equal(block, samples[n]) {
			t.Fatalf("corpus line %d: sampled block drifted from generator", n)
		}
		c := s.AppendCompress(nil, block)
		if c.Stored != wantStored || c.SizeBits != wantBits || !bytes.Equal(c.Payload, wantPayload) {
			t.Fatalf("corpus line %d: encoder output changed: got stored=%v size=%d payload=%x, want stored=%v size=%d payload=%x",
				n, c.Stored, c.SizeBits, c.Payload, wantStored, wantBits, wantPayload)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(samples) {
		t.Fatalf("corpus has %d lines, generator produces %d blocks", n, len(samples))
	}
}
