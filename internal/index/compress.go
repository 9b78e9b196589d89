package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"ajaxcrawl/internal/model"
)

// On-disk index format. It applies the standard IR compression tricks —
// delta-encoded, varint-coded posting lists — that the related-work
// chapter points at (web-graph/index compression):
//
//	magic "AJIX" | version u8
//	docCount varint
//	  per doc: url (len-prefixed), pagerank f64,
//	           states varint, stateLens varints, ajaxRanks f64s
//	totalStates varint
//	termCount varint
//	  per term (sorted): term (len-prefixed), postingCount varint,
//	    per posting: docDelta varint, state varint,
//	                 posCount varint, positions as deltas varint
//
// Doc IDs within one term's posting list are ascending, so consecutive
// deltas are small; positions within one posting likewise. Every float
// is stored as its exact float64 bits, so a decoded index ranks
// bit-for-bit like the one that was saved. Version 1 stored AJAXRanks
// as float32 and is not read.

const (
	compressedMagic   = "AJIX"
	compressedVersion = 2

	// maxCount bounds every count read from an untrusted file (docs,
	// states, terms, postings, positions). A truncated or corrupt varint
	// otherwise turns straight into make([]T, n) with an arbitrary n —
	// an unrecoverable allocation panic rather than a load error.
	maxCount = 1 << 26
	// maxPrealloc caps how much a single count is trusted for slice
	// pre-allocation; beyond it, slices grow by append as real data
	// arrives, so a lying header can't allocate more than the file
	// actually backs.
	maxPrealloc = 1 << 16
)

// checkCount validates an untrusted count field.
func checkCount(what string, n uint64) (int, error) {
	if n > maxCount {
		return 0, fmt.Errorf("%s count %d exceeds limit %d", what, n, maxCount)
	}
	return int(n), nil
}

// prealloc returns a safe initial capacity for a count-prefixed slice.
func prealloc(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// EncodeCompressed writes the compact binary format to w.
func (ix *Index) EncodeCompressed(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := ix.writeCompressed(bw); err != nil {
		return fmt.Errorf("index: encode compressed: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: encode compressed: %w", err)
	}
	return nil
}

// SaveCompressed writes the index in the compact binary format.
func (ix *Index) SaveCompressed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: save compressed: %w", err)
	}
	if err := ix.EncodeCompressed(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (ix *Index) writeCompressed(w *bufio.Writer) error {
	w.WriteString(compressedMagic) //nolint:errcheck // checked via Flush
	w.WriteByte(compressedVersion) //nolint:errcheck

	putUvarint(w, uint64(len(ix.Docs)))
	for _, d := range ix.Docs {
		putString(w, d.URL)
		putFloat64(w, d.PageRank)
		putUvarint(w, uint64(d.States))
		for _, l := range d.StateLens {
			putUvarint(w, uint64(l))
		}
		for _, r := range d.AJAXRanks {
			putFloat64(w, r)
		}
	}
	putUvarint(w, uint64(ix.TotalStates))

	terms := make([]string, 0, len(ix.Terms))
	for t := range ix.Terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	putUvarint(w, uint64(len(terms)))
	for _, t := range terms {
		putString(w, t)
		ps := ix.Terms[t]
		putUvarint(w, uint64(len(ps)))
		prevDoc := DocID(0)
		for _, p := range ps {
			putUvarint(w, uint64(p.Doc-prevDoc))
			prevDoc = p.Doc
			putUvarint(w, uint64(p.State))
			putUvarint(w, uint64(len(p.Positions)))
			prev := int32(0)
			for _, pos := range p.Positions {
				putUvarint(w, uint64(pos-prev))
				prev = pos
			}
		}
	}
	return nil
}

// DecodeCompressed reads one compact-binary index from r. The bytes are
// untrusted — the serving daemon loads snapshots straight off disk — so
// counts are bounded, pre-allocations capped, the decoded structure
// validated before it is handed out, and decoder panics converted to
// errors.
func DecodeCompressed(r io.Reader) (ix *Index, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			ix, err = nil, fmt.Errorf("index: decode compressed: corrupt input: %v", rec)
		}
	}()
	ix, err = readCompressed(bufio.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("index: decode compressed: %w", err)
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// LoadCompressed reads an index written by SaveCompressed.
func LoadCompressed(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load compressed: %w", err)
	}
	defer f.Close()
	ix, err := DecodeCompressed(f)
	if err != nil {
		return nil, fmt.Errorf("index: load compressed %s: %w", path, err)
	}
	return ix, nil
}

func readCompressed(r *bufio.Reader) (*Index, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != compressedMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	version, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != compressedVersion {
		return nil, fmt.Errorf("unsupported format version %d (this build reads %d); re-publish the index", version, compressedVersion)
	}

	ix := New()
	rawDocCount, err := getUvarint(r)
	if err != nil {
		return nil, err
	}
	docCount, err := checkCount("doc", rawDocCount)
	if err != nil {
		return nil, err
	}
	for i := 0; i < docCount; i++ {
		var d DocInfo
		if d.URL, err = getString(r); err != nil {
			return nil, err
		}
		if d.PageRank, err = getFloat64(r); err != nil {
			return nil, err
		}
		rawStates, err := getUvarint(r)
		if err != nil {
			return nil, err
		}
		states, err := checkCount("state", rawStates)
		if err != nil {
			return nil, err
		}
		d.States = states
		d.StateLens = make([]int32, 0, prealloc(states))
		for j := 0; j < states; j++ {
			v, err := getUvarint(r)
			if err != nil {
				return nil, err
			}
			d.StateLens = append(d.StateLens, int32(v))
		}
		d.AJAXRanks = make([]float64, 0, prealloc(states))
		for j := 0; j < states; j++ {
			v, err := getFloat64(r)
			if err != nil {
				return nil, err
			}
			d.AJAXRanks = append(d.AJAXRanks, v)
		}
		ix.docByURL[d.URL] = DocID(len(ix.Docs))
		ix.Docs = append(ix.Docs, d)
	}
	total, err := getUvarint(r)
	if err != nil {
		return nil, err
	}
	if _, err := checkCount("total-state", total); err != nil {
		return nil, err
	}
	ix.TotalStates = int(total)

	rawTermCount, err := getUvarint(r)
	if err != nil {
		return nil, err
	}
	termCount, err := checkCount("term", rawTermCount)
	if err != nil {
		return nil, err
	}
	for i := 0; i < termCount; i++ {
		term, err := getString(r)
		if err != nil {
			return nil, err
		}
		rawN, err := getUvarint(r)
		if err != nil {
			return nil, err
		}
		n, err := checkCount("posting", rawN)
		if err != nil {
			return nil, err
		}
		ps := make([]Posting, 0, prealloc(n))
		prevDoc := DocID(0)
		for j := 0; j < n; j++ {
			var p Posting
			dd, err := getUvarint(r)
			if err != nil {
				return nil, err
			}
			prevDoc += DocID(dd)
			p.Doc = prevDoc
			st, err := getUvarint(r)
			if err != nil {
				return nil, err
			}
			state, err := checkCount("state-id", st)
			if err != nil {
				return nil, err
			}
			p.State = model.StateID(state)
			rawPC, err := getUvarint(r)
			if err != nil {
				return nil, err
			}
			pc, err := checkCount("position", rawPC)
			if err != nil {
				return nil, err
			}
			p.Positions = make([]int32, 0, prealloc(pc))
			prev := int32(0)
			for k := 0; k < pc; k++ {
				d, err := getUvarint(r)
				if err != nil {
					return nil, err
				}
				prev += int32(d)
				p.Positions = append(p.Positions, prev)
			}
			ps = append(ps, p)
		}
		ix.Terms[term] = ps
	}
	return ix, nil
}

// ---- primitive codecs ----

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck
}

func getUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func putString(w *bufio.Writer, s string) {
	putUvarint(w, uint64(len(s)))
	w.WriteString(s) //nolint:errcheck
}

func getString(r *bufio.Reader) (string, error) {
	n, err := getUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func putFloat64(w *bufio.Writer, f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	w.Write(buf[:]) //nolint:errcheck
}

func getFloat64(r *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
