// Package query implements the query-processing side of the AJAX search
// engine (thesis §5.3 and §6.5): simple keyword queries, conjunctions as
// sorted posting-list merges on (URL, state), the composite ranking
// formula 5.3 (PageRank + AJAXRank + tf·idf + term proximity), and
// distributed query shipping over index shards with the global idf
// correction of eq. 6.1.
package query

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// Weights are the w1..w4 coefficients of formula 5.3.
type Weights struct {
	PageRank  float64 // w1
	AJAXRank  float64 // w2
	TFIDF     float64 // w3
	Proximity float64 // w4
}

// DefaultWeights balance the four components for the experiments.
var DefaultWeights = Weights{PageRank: 1.0, AJAXRank: 0.5, TFIDF: 2.0, Proximity: 0.5}

// Result is one ranked search hit: a URL plus the application state
// containing the query.
type Result struct {
	URL   string
	State model.StateID
	Score float64
}

// Parse tokenizes a query string into terms (conjunction semantics).
func Parse(q string) []string {
	return index.Tokenize(q)
}

// match is one (doc, state) containing all query terms, with the
// postings aligned per term.
type match struct {
	doc      index.DocID
	state    model.StateID
	postings []index.Posting // one per term, same (doc, state)
}

// conjunction merges the posting lists of all terms, keeping only
// (doc, state) pairs where every term occurs — the two-phase
// compatibility merge of Figure 5.2 (URLs first, then states).
func conjunction(ix *index.Index, terms []string) []match {
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]index.Posting, len(terms))
	for i, t := range terms {
		lists[i] = ix.Lookup(t)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	// k-way sorted merge: advance the cursor with the smallest
	// (doc, state); emit when all cursors agree.
	cursors := make([]int, len(lists))
	var out []match
	for {
		// Find the max (doc, state) among cursors; all must reach it.
		maxDoc, maxState := lists[0][cursors[0]].Doc, lists[0][cursors[0]].State
		equal := true
		for i := range lists {
			p := lists[i][cursors[i]]
			if p.Doc != maxDoc || p.State != maxState {
				equal = false
			}
			if p.Doc > maxDoc || (p.Doc == maxDoc && p.State > maxState) {
				maxDoc, maxState = p.Doc, p.State
			}
		}
		if equal {
			m := match{doc: maxDoc, state: maxState, postings: make([]index.Posting, len(lists))}
			for i := range lists {
				m.postings[i] = lists[i][cursors[i]]
			}
			out = append(out, m)
			// Advance all cursors past the emitted pair.
			for i := range lists {
				cursors[i]++
				if cursors[i] >= len(lists[i]) {
					return out
				}
			}
			continue
		}
		// Advance every cursor that is behind (maxDoc, maxState).
		for i := range lists {
			for cursors[i] < len(lists[i]) {
				p := lists[i][cursors[i]]
				if p.Doc < maxDoc || (p.Doc == maxDoc && p.State < maxState) {
					cursors[i]++
				} else {
					break
				}
			}
			if cursors[i] >= len(lists[i]) {
				return out
			}
		}
	}
}

// proximity computes the term-proximity coefficient T(q, s): k/span,
// where span is the smallest window (in tokens) containing one
// occurrence of every term. It is 1.0 when the terms appear adjacently
// ("contains the query as is") and decays as they spread out. Single-term
// queries score 1.
func proximity(postings []index.Posting) float64 {
	k := len(postings)
	if k <= 1 {
		return 1.0
	}
	// Pointers into each term's position list; classic minimal-window.
	ptr := make([]int, k)
	best := math.MaxInt32
	for {
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		loIdx := -1
		for i := 0; i < k; i++ {
			pos := postings[i].Positions[ptr[i]]
			if pos < lo {
				lo, loIdx = pos, i
			}
			if pos > hi {
				hi = pos
			}
		}
		if span := int(hi-lo) + 1; span < best {
			best = span
		}
		ptr[loIdx]++
		if ptr[loIdx] >= len(postings[loIdx].Positions) {
			break
		}
	}
	if best < k {
		best = k // overlapping positions cannot beat adjacency
	}
	return float64(k) / float64(best)
}

// tf computes eq. 5.1: occurrences of the term divided by the state's
// token count.
func tf(p index.Posting, stateLen int32) float64 {
	if stateLen == 0 {
		return 0
	}
	return float64(p.TF()) / float64(stateLen)
}

// shardSearch evaluates into.Terms on one index shard and accumulates
// the result into into: the shard's df vector and state count are added
// to into's, and every (doc, state) matching all terms is appended as a
// pre-idf candidate, in the shard's (doc, state) order.
func shardSearch(ix *index.Index, w Weights, into *ShardResult) {
	for i, t := range into.Terms {
		into.DF[i] += ix.DF(t)
	}
	into.TotalStates += ix.TotalStates
	matches := conjunction(ix, into.Terms)
	into.Candidates = slices.Grow(into.Candidates, len(matches))
	// One backing array holds every candidate's TFs.
	tfs := make([]float64, len(matches)*len(into.Terms))
	for _, m := range matches {
		doc := ix.Doc(m.doc)
		stateLen := int32(0)
		ajaxRank := 0.0
		if int(m.state) < len(doc.StateLens) {
			stateLen = doc.StateLens[m.state]
			ajaxRank = doc.AJAXRanks[m.state]
		}
		c := ShardCandidate{
			URL:   doc.URL,
			State: int(m.state),
			Base:  w.PageRank*doc.PageRank + w.AJAXRank*ajaxRank + w.Proximity*proximity(m.postings),
			TFs:   tfs[:len(m.postings):len(m.postings)],
		}
		tfs = tfs[len(m.postings):]
		for i, post := range m.postings {
			c.TFs[i] = tf(post, stateLen)
		}
		into.Candidates = append(into.Candidates, c)
	}
}

// Broker ships a query to every index shard and ranks the union of their
// candidates with Merge: the two-step merge of Figure 6.4, in one
// process.
type Broker struct {
	Shards []*index.Index
	W      Weights
}

// NewBroker returns a broker with default weights.
func NewBroker(shards []*index.Index) *Broker {
	return &Broker{Shards: shards, W: DefaultWeights}
}

// SearchTopK evaluates the (conjunctive) keyword query and returns its k
// best results in rank order; k <= 0 returns every result.
func (b *Broker) SearchTopK(q string, k int) []Result {
	return b.SearchTopKCtx(context.Background(), q, k)
}

// SearchTopKCtx is SearchTopK under a context: when the context carries
// telemetry, the evaluation is wrapped in a query.exec span and its
// latency and candidate count land in the registry. With no telemetry
// on the context it costs one Value lookup.
func (b *Broker) SearchTopKCtx(ctx context.Context, q string, k int) []Result {
	tel := obs.From(ctx)
	_, sp := obs.StartSpan(ctx, obs.SpanQueryExec, obs.A("q", q))
	start := time.Now()
	out, candidates := b.search(q, k)
	tel.Counter("query.count").Inc()
	tel.Counter("query.candidates").Add(int64(candidates))
	tel.Histogram("query.latency").Observe(time.Since(start).Seconds())
	sp.SetAttr("results", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// search is the uninstrumented evaluation: one Merge part per index
// shard. The int is the number of candidate (URL, state) matches
// examined before ranking.
func (b *Broker) search(q string, k int) ([]Result, int) {
	terms := Parse(q)
	if len(terms) == 0 {
		return nil, 0
	}
	parts := make([]*ShardResult, len(b.Shards))
	candidates := 0
	for i, ix := range b.Shards {
		parts[i] = &ShardResult{Terms: terms, DF: make([]int, len(terms))}
		shardSearch(ix, b.W, parts[i])
		candidates += len(parts[i].Candidates)
	}
	if candidates == 0 {
		return nil, 0
	}
	ranked, _ := Merge(terms, b.W, parts, k)
	out := make([]Result, len(ranked))
	for i := range ranked {
		out[i] = ranked[i].Result
	}
	return out, candidates
}

// TopK truncates a result list to its k best entries.
func TopK(rs []Result, k int) []Result {
	if k <= 0 || k >= len(rs) {
		return rs
	}
	return rs[:k]
}

// QueryString normalizes a query for display.
func QueryString(terms []string) string { return strings.Join(terms, " ") }
