package index

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedIndex builds a representative index and returns its on-disk
// bytes.
func fuzzSeedIndex(tb testing.TB) []byte {
	tb.Helper()
	part1, part2 := snapshotGraphs()
	ix := Build(append(part1, part2...), map[string]float64{"site/watch?v=a": 0.4}, 0)
	var bb bytes.Buffer
	if err := ix.EncodeCompressed(&bb); err != nil {
		tb.Fatal(err)
	}
	return bb.Bytes()
}

// indexHeader is the magic and current version every valid index starts with.
var indexHeader = compressedMagic + string(rune(compressedVersion))

// FuzzIndexLoad feeds arbitrary bytes to the snapshot decoder. It may
// never panic — snapshot files are untrusted disk input read by a
// long-running daemon — and any index that decodes successfully must be
// safe to query (in-range postings, non-empty position lists).
func FuzzIndexLoad(f *testing.F) {
	binBytes := fuzzSeedIndex(f)
	// The same index under the retired version 1 (float32 AJAXRanks).
	v1 := append([]byte(nil), binBytes...)
	v1[len(compressedMagic)] = 1
	f.Add(v1)
	f.Add(binBytes)
	f.Add(binBytes[:len(binBytes)/4])
	f.Add(binBytes[:len(binBytes)/2])
	f.Add([]byte{})
	f.Add([]byte(compressedMagic))
	f.Add([]byte(indexHeader))
	// A header that lies about the doc count: magic, version, then a
	// varint claiming ~1e12 docs follow. This was a crasher: the count
	// went straight into make() before maxCount existed.
	lying := []byte(indexHeader)
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], 1<<40)
	f.Add(append(lying, buf[:n]...))
	// Bit flips in otherwise-valid input hit the mid-stream paths.
	for _, off := range []int{8, len(binBytes) / 3, 2 * len(binBytes) / 3} {
		flipped := append([]byte(nil), binBytes...)
		flipped[off] ^= 0x80
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := DecodeCompressed(bytes.NewReader(data))
		if err != nil {
			return // error is the correct outcome for corrupt input
		}
		// Decoded OK: the invariants the query layer relies on must
		// hold, or SearchTopK would index out of range at serve time.
		nd := ix.NumDocs()
		_ = ix.NumPostings()
		for term, ps := range ix.Terms {
			for _, p := range ps {
				if int(p.Doc) < 0 || int(p.Doc) >= nd {
					t.Fatalf("term %q posting doc %d out of range [0,%d)", term, p.Doc, nd)
				}
				if len(p.Positions) == 0 {
					t.Fatalf("term %q posting for doc %d has no positions", term, p.Doc)
				}
				_ = ix.Doc(p.Doc)
			}
			_ = ix.Lookup(term)
			_ = ix.DF(term)
		}
	})
}

// TestDecodeCompressedLyingCounts pins the specific crasher class the
// count caps fix: headers that promise more data than the file holds
// must come back as load errors, not allocation panics.
func TestDecodeCompressedLyingCounts(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for _, count := range []uint64{maxCount + 1, 1 << 40, 1<<64 - 1} {
		n := binary.PutUvarint(buf[:], count)
		data := append([]byte(indexHeader), buf[:n]...)
		if _, err := DecodeCompressed(bytes.NewReader(data)); err == nil {
			t.Fatalf("doc count %d accepted", count)
		}
	}
}

// TestDecodeTruncated walks every prefix of a valid compressed index;
// all must fail cleanly (the full input must load).
func TestDecodeTruncated(t *testing.T) {
	binBytes := fuzzSeedIndex(t)
	if _, err := DecodeCompressed(bytes.NewReader(binBytes)); err != nil {
		t.Fatalf("full input: %v", err)
	}
	for i := 0; i < len(binBytes); i++ {
		if _, err := DecodeCompressed(bytes.NewReader(binBytes[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(binBytes))
		}
	}
}
