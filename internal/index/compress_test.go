package index

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/model"
)

func TestCompressedRoundTrip(t *testing.T) {
	ix := Build(twoVideoGraphs(), map[string]float64{
		"www.youtube.com/watch?v=w16JlLSySWQ": 0.6,
		"www.youtube.com/watch?v=Iv5JXxME0js": 0.4,
	}, 0)
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := ix.SaveCompressed(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalStates != ix.TotalStates || loaded.NumDocs() != ix.NumDocs() || loaded.NumTerms() != ix.NumTerms() {
		t.Fatalf("round trip lost counts: %d/%d docs, %d/%d states",
			loaded.NumDocs(), ix.NumDocs(), loaded.TotalStates, ix.TotalStates)
	}
	for term := range ix.Terms {
		if !reflect.DeepEqual(loaded.Lookup(term), ix.Lookup(term)) {
			t.Fatalf("postings differ for %q:\n%v\n%v", term, loaded.Lookup(term), ix.Lookup(term))
		}
	}
	for i := 0; i < ix.NumDocs(); i++ {
		a, b := ix.Doc(DocID(i)), loaded.Doc(DocID(i))
		if a.URL != b.URL || a.PageRank != b.PageRank || a.States != b.States {
			t.Fatalf("doc %d differs: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.StateLens, b.StateLens) {
			t.Fatalf("doc %d state lens differ", i)
		}
		if !reflect.DeepEqual(a.AJAXRanks, b.AJAXRanks) {
			t.Fatalf("doc %d ajaxranks differ: %v vs %v", i, a.AJAXRanks, b.AJAXRanks)
		}
	}
	// docByURL rebuilt.
	if d, ok := loaded.DocByURL("www.youtube.com/watch?v=w16JlLSySWQ"); !ok || d != 0 {
		t.Fatalf("docByURL not rebuilt")
	}
}

func TestCompressedRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCompressed(bad); err == nil {
		t.Fatalf("garbage file should fail to load")
	}
	// Truncated file.
	ix := Build(twoVideoGraphs(), nil, 0)
	good := filepath.Join(dir, "good.bin")
	if err := ix.SaveCompressed(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.bin")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCompressed(trunc); err == nil {
		t.Fatalf("truncated file should fail to load")
	}
	if _, err := LoadCompressed(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatalf("missing file should fail to load")
	}
	// A version-1 file (float32 AJAXRanks) is refused, not misread.
	v1 := filepath.Join(dir, "v1.bin")
	data[len(compressedMagic)] = 1
	if err := os.WriteFile(v1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCompressed(v1); err == nil || !strings.Contains(err.Error(), "re-publish") {
		t.Fatalf("version-1 file: err = %v, want a re-publish error", err)
	}
}

// Property: compressed round trip preserves every posting list for random
// small corpora.
func TestPropertyCompressedRoundTrip(t *testing.T) {
	var counter byte = 100
	f := func(texts []string) bool {
		if len(texts) == 0 {
			return true
		}
		if len(texts) > 8 {
			texts = texts[:8]
		}
		g := model.NewGraph("/u")
		for depth, text := range texts {
			counter++
			g.AddState(hashOf(counter), text, depth)
		}
		ix := New()
		ix.AddGraph(g, 0.5, 0)
		dir, err := os.MkdirTemp("", "cmp-prop-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "x.bin")
		if err := ix.SaveCompressed(path); err != nil {
			return false
		}
		loaded, err := LoadCompressed(path)
		if err != nil {
			return false
		}
		if loaded.NumTerms() != ix.NumTerms() || loaded.TotalStates != ix.TotalStates {
			return false
		}
		for term := range ix.Terms {
			if !reflect.DeepEqual(loaded.Lookup(term), ix.Lookup(term)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSaveCompressed(b *testing.B) {
	ix := Build(twoVideoGraphs(), nil, 0)
	path := filepath.Join(b.TempDir(), "idx.bin")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ix.SaveCompressed(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadCompressed(b *testing.B) {
	ix := Build(twoVideoGraphs(), nil, 0)
	path := filepath.Join(b.TempDir(), "idx.bin")
	if err := ix.SaveCompressed(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCompressed(path); err != nil {
			b.Fatal(err)
		}
	}
}
