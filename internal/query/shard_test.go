package query

import (
	"context"
	"testing"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/obs"
)

// TestShardSearchFoldsBackToSearch is the protocol's local soundness
// check: on a single shard the local df IS the global df, so folding
// the shard response's pre-idf candidates with its own statistics must
// reproduce Broker.SearchTopK bit-for-bit — same docs, same float64 scores,
// same order. (The cross-shard half lives in internal/router's
// differential battery.)
func TestShardSearchFoldsBackToSearch(t *testing.T) {
	ix := thesisIndex()
	snap := &ServeSnapshot{Broker: NewBroker([]*index.Index{ix})}
	srv := NewServer(snap, CacheOptions{})

	for _, q := range []string{"morcheeba", "morcheeba video", "new singer", "nosuchterm", "the"} {
		res := srv.ShardSearch(context.Background(), q)
		want := snap.Broker.SearchTopK(q, 0)
		got, _ := Merge(res.Terms, snap.Broker.W, []*ShardResult{res}, 0)
		if len(got) != len(want) {
			t.Fatalf("q=%q: folded %d results, Search %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Result != want[i] {
				t.Fatalf("q=%q rank %d: folded %+v, Search %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestShardSearchReturnsAllCandidates: a shard must NOT truncate to a
// local top-k — local pre-idf order can differ from the global order,
// so any cut risks evicting a globally top-ranked document.
func TestShardSearchReturnsAllCandidates(t *testing.T) {
	ix := thesisIndex()
	snap := &ServeSnapshot{Broker: NewBroker([]*index.Index{ix})}
	srv := NewServer(snap, CacheOptions{})

	res := srv.ShardSearch(context.Background(), "morcheeba")
	want := snap.Broker.SearchTopK("morcheeba", 0)
	if len(res.Candidates) != len(want) {
		t.Fatalf("shard returned %d candidates, full evaluation has %d matches",
			len(res.Candidates), len(want))
	}
	if res.TotalStates != ix.TotalStates {
		t.Fatalf("TotalStates = %d, want %d", res.TotalStates, ix.TotalStates)
	}
	if len(res.Terms) != 1 || res.Terms[0] != "morcheeba" {
		t.Fatalf("Terms = %v", res.Terms)
	}
	if len(res.DF) != 1 || res.DF[0] != len(want) {
		t.Fatalf("DF = %v, want [%d]", res.DF, len(want))
	}
	for i, c := range res.Candidates {
		if len(c.TFs) != 1 {
			t.Fatalf("candidate %d TFs = %v, want 1 entry per term", i, c.TFs)
		}
	}
}

// TestShardSearchSnippetsAndMetadata: snippets are attached shard-side
// (the state text never leaves the shard) and the snapshot metadata
// rides along.
func TestShardSearchSnippetsAndMetadata(t *testing.T) {
	texts := map[string]string{}
	pages := map[string][]string{
		"url1": {"morcheeba enjoy the ride official video"},
		"url2": {"morcheeba concert footage"},
	}
	for u, states := range pages {
		texts[u] = states[0]
	}
	ix := buildIndex(pages, nil)
	snap := &ServeSnapshot{
		Broker:    NewBroker([]*index.Index{ix}),
		StateText: func(url string, state int) string { return texts[url] },
	}
	srv := NewServer(snap, CacheOptions{})
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	res := srv.ShardSearch(ctx, "morcheeba")
	if res.Gen != 1 || res.Docs != 2 || res.States != 2 {
		t.Fatalf("metadata = gen %d, %d docs, %d states", res.Gen, res.Docs, res.States)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Snippet == "" {
			t.Fatalf("candidate %s has no snippet", c.URL)
		}
	}
	if got := reg.Counter("query.shard.requests").Value(); got != 1 {
		t.Fatalf("query.shard.requests = %d, want 1", got)
	}
	if got := reg.Counter("query.shard.candidates").Value(); got != 2 {
		t.Fatalf("query.shard.candidates = %d, want 2", got)
	}
}

// TestShardSearchEmptyQuery: no terms, no candidates — but the vectors
// are present (non-nil) so the response marshals predictably.
func TestShardSearchEmptyQuery(t *testing.T) {
	snap := &ServeSnapshot{Broker: NewBroker([]*index.Index{thesisIndex()})}
	srv := NewServer(snap, CacheOptions{})
	res := srv.ShardSearch(context.Background(), "...!!...")
	if len(res.Terms) != 0 || len(res.DF) != 0 || len(res.Candidates) != 0 {
		t.Fatalf("empty query result = %+v", res)
	}
	if res.Candidates == nil || res.DF == nil {
		t.Fatal("empty vectors must be non-nil for stable marshaling")
	}
}
