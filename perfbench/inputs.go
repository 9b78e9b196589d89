package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

// The input generator. Every workload draws its inputs from here and
// from --seed alone; the program under test receives only the site and
// the query strings.
const (
	// videos is the stated input size of every crawl.
	videos = 400
	// poolSize is the distinct-query space: eight times the serving
	// tier's default 1024-entry result cache, so the cache sees both
	// hits and misses.
	poolSize = 8192
	// zipfS skews query popularity. With s = 0.8 the 1024 most popular
	// queries draw about 60% of the traffic (the cache's reach) and the
	// 100 experiment queries, the costliest, about a third, so that the
	// median request is a generated query rather than a draw between
	// the two kinds.
	zipfS = 0.8
)

// siteSeed is the generator seed of site k of a run with seed seed.
func siteSeed(seed int64, k int) int64 { return seed*crawlSites + int64(k) }

// newSite generates the seeded YouTube-like site and materialises
// every video, so that no crawl pays for lazy content generation.
func newSite(seed int64, noisy bool) *webapp.Site {
	cfg := webapp.DefaultConfig(videos, seed)
	cfg.NoisyDecor = noisy
	site := webapp.New(cfg)
	for i := 0; i < site.NumVideos(); i++ {
		site.Video(i)
	}
	return site
}

// queryPool returns poolSize distinct queries, most popular first: the
// experiment workload of webapp.Queries (Table 7.4's queries lead it),
// then 1–3-term conjunctions of words that occur together in one
// comment of the site, so that most generated queries have answers.
// The generated queries are ranked narrowest first (by the fewest
// comments any of their words occurs in): the costly head is the fixed
// experiment set, whose matches the site plants at a fixed rate, and a
// popularity rank asks for about as much work whatever the seed.
func queryPool(site *webapp.Site, seed int64) []string {
	df := map[string]int{}
	for i := 0; i < site.NumVideos(); i++ {
		for _, page := range site.Video(i).Pages {
			for _, c := range page {
				for _, w := range distinctWords(c.Text) {
					df[w]++
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(seed ^ 0x51ed))
	seen := map[string]bool{}
	var head []string
	for _, q := range webapp.Queries() {
		if key := query.QueryString(query.Parse(q)); !seen[key] {
			seen[key] = true
			head = append(head, q)
		}
	}
	type gen struct {
		q     string
		broad int
	}
	var tail []gen
	for attempts := 0; len(head)+len(tail) < poolSize && attempts < 50*poolSize; attempts++ {
		v := site.Video(rng.Intn(site.NumVideos()))
		page := v.Pages[rng.Intn(len(v.Pages))]
		if len(page) == 0 {
			continue
		}
		words := distinctWords(page[rng.Intn(len(page))].Text)
		if len(words) == 0 {
			continue
		}
		rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
		words = words[:min(1+rng.Intn(3), len(words))]
		q := strings.Join(words, " ")
		if key := query.QueryString(query.Parse(q)); !seen[key] {
			seen[key] = true
			broad := df[words[0]]
			for _, w := range words[1:] {
				broad = min(broad, df[w])
			}
			tail = append(tail, gen{q, broad})
		}
	}
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].broad != tail[j].broad {
			return tail[i].broad < tail[j].broad
		}
		return tail[i].q < tail[j].q
	})
	for _, g := range tail {
		head = append(head, g.q)
	}
	return head
}

// distinctWords tokenizes text as the index does and keeps each word
// of three or more letters once, in first-seen order.
func distinctWords(text string) []string {
	var out []string
	seen := map[string]bool{}
	for _, w := range index.Tokenize(text) {
		if len(w) >= 3 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// queryStream draws queries from a pool with Zipf-skewed popularity.
// Draw i depends only on the stream's tag and i, so a schedule is
// reproducible and can be read from many goroutines. The draws ignore
// the seed on purpose: runs with different seeds then ask for the same
// popularity ranks in the same order, and differ in their site and in
// the queries their pools hold, not in how many costly head queries
// they happen to draw in a short phase.
type queryStream struct {
	pool []string
	cdf  []float64
	key  uint64
}

func newQueryStream(pool []string, tag uint64) *queryStream {
	cdf := make([]float64, len(pool))
	var total float64
	for r := range pool {
		total += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return &queryStream{pool: pool, cdf: cdf, key: splitmix(tag)}
}

// At returns the i-th query of the stream.
func (s *queryStream) At(i int) string { return s.pool[s.rank(i)] }

// rank is the popularity rank of the i-th query of the stream.
func (s *queryStream) rank(i int) int {
	u := float64(splitmix(s.key+uint64(i))>>11) / (1 << 53)
	return min(sort.SearchFloat64s(s.cdf, u), len(s.pool)-1)
}

// Rounds deals the stream's first n*per queries out to n rounds of per
// queries each, sorted by popularity rank and taken in turn, so that
// every round asks for the same mix of costly head and cheap tail
// queries and the rounds of a run differ in how fast the host ran
// them, not in the work they held. Each round's order is shuffled.
func (s *queryStream) Rounds(n, per int) [][]string {
	ranks := make([]int, n*per)
	for i := range ranks {
		ranks[i] = s.rank(i)
	}
	sort.Ints(ranks)
	out := make([][]string, n)
	for j, r := range ranks {
		out[j%n] = append(out[j%n], s.pool[r])
	}
	for k, qs := range out {
		rng := rand.New(rand.NewSource(int64(k)))
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	}
	return out
}

// splitmix is the SplitMix64 finaliser, a cheap stateless hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
