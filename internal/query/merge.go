package query

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"strings"

	"ajaxcrawl/internal/model"
)

// Merge is the global half of Figure 6.4's two-step merge and the one
// ranking kernel behind every search path: a Broker merges one part per
// local index shard, a router merges one part per answering shard
// server. It
//
//   - sums df and state counts over the parts, in part order, so the
//     float arithmetic (and therefore every score) is the same however
//     the collection is split;
//   - computes the global idf of eq. 6.1;
//   - folds w3·tf·idf into each candidate's idf-independent Base;
//   - drops every (URL, state) an earlier candidate already produced,
//     counting the drops in dups (nonzero only for overlapping parts);
//   - ranks by score desc, URL asc, state asc.
//
// k <= 0 returns every result. When 0 < k < candidates, a bounded heap
// keeps only the k best instead of sorting everything: scores are
// computed per candidate anyway (there are no sorted per-term score
// lists for a threshold algorithm to walk), so the win is O(n log k)
// for the O(n log n) sort, which stays as the reference the tests
// compare the heap against. nil parts and candidates whose TFs are not
// aligned with terms are skipped, so a hostile response that slipped
// past validation cannot panic the fold.
func Merge(terms []string, w Weights, parts []*ShardResult, k int) (ranked []ResultWithSnippet, dups int) {
	df := make([]int, len(terms))
	totalStates, n := 0, 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i, d := range p.DF {
			df[i] += d
		}
		totalStates += p.TotalStates
		n += len(p.Candidates)
	}
	idf := make([]float64, len(terms))
	for i, d := range df {
		if d > 0 && totalStates > 0 {
			idf[i] = math.Log(float64(totalStates) / float64(d))
		}
	}

	bounded := k > 0 && k < n
	size := n
	if bounded {
		size = k
	}
	h := make(rankHeap, 0, size)
	type docKey struct {
		url   string
		state int
	}
	seen := make(map[docKey]struct{}, n)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, c := range p.Candidates {
			if len(c.TFs) != len(terms) {
				continue
			}
			// One map operation per candidate: a duplicate leaves the
			// map's size unchanged.
			before := len(seen)
			seen[docKey{url: c.URL, state: c.State}] = struct{}{}
			if len(seen) == before {
				dups++
				continue
			}
			score := c.Base
			for t := range terms {
				score += w.TFIDF * c.TFs[t] * idf[t]
			}
			r := ResultWithSnippet{
				Result:  Result{URL: c.URL, State: model.StateID(c.State), Score: score},
				Snippet: c.Snippet,
			}
			switch {
			case !bounded:
				h = append(h, r)
			case len(h) < k:
				heap.Push(&h, r)
			case rankCmp(r.Result, h[0].Result) < 0:
				h[0] = r
				heap.Fix(&h, 0)
			}
		}
	}
	// The order is total once duplicates are gone, so an unstable sort
	// is as deterministic as a stable one.
	slices.SortFunc(h, func(a, b ResultWithSnippet) int { return rankCmp(a.Result, b.Result) })
	return h, dups
}

// rankCmp is the rank order: negative when a ranks above b (higher
// score; ties broken by URL, then state, ascending).
func rankCmp(a, b Result) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.URL, b.URL); c != 0 {
		return c
	}
	return cmp.Compare(a.State, b.State)
}

// rankHeap is a min-heap on rank quality: the root is the worst of the
// kept results, ready to be displaced.
type rankHeap []ResultWithSnippet

func (h rankHeap) Len() int            { return len(h) }
func (h rankHeap) Less(i, j int) bool  { return rankCmp(h[i].Result, h[j].Result) > 0 }
func (h rankHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x interface{}) { *h = append(*h, x.(ResultWithSnippet)) }
func (h *rankHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
