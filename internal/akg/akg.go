// Package akg maintains the Active Correlated Keyword Graph of Section 3:
// the hysteresis-based subgraph of the CKG containing only keywords that
// showed burstiness, with edges between keyword pairs whose user-id sets
// have Jaccard correlation above the EC threshold.
//
// Per quantum the layer:
//
//  1. slides the window, expiring id-set observations older than w quanta
//     and removing stale keywords (not seen in the whole window);
//  2. moves keywords that were used by ≥ τ distinct users this quantum
//     into the high state (set 1 of Section 3.2.1) and adds them to the
//     AKG;
//  3. lazily refreshes the correlation of AKG keywords that appeared in
//     this quantum's messages (set 2) with their current neighbors,
//     dropping edges whose EC fell below β;
//  4. screens set-1 pairs with bottom-p Min-Hash sketches (Section 3.2.2)
//     and inserts edges whose exact Jaccard is ≥ β;
//  5. removes AKG keywords that end up isolated and non-bursty — a
//     keyword stays while it is part of any cluster (the engine tracks
//     membership), which realises the paper's "remains in AKG as long as
//     it is part of an event cluster" rule.
//
// All graph mutations flow through the core.Engine, so clusters are
// maintained incrementally as a side effect of AKG maintenance.
//
// Keywords arrive as interned, dense dygraph.NodeIDs, so per-keyword
// state lives in slices indexed by NodeID (sized by the largest ID seen)
// rather than maps, and each keyword's windowed user set is a sorted
// array with a parallel multiplicity column (idSet). The window slide,
// Jaccard tests and union walks are then linear merges over flat arrays.
package akg

import (
	"math"
	"slices"

	"repro/internal/ckg"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/minhash"
)

// Config holds the tunable parameters of Table 2 plus implementation
// switches used by the ablation benchmarks.
type Config struct {
	// Tau (τ) is the high-state threshold: distinct users per quantum
	// needed for a keyword to turn bursty. Paper nominal: 4.
	Tau int
	// Beta (β) is the edge-correlation threshold on the Jaccard
	// coefficient of user-id sets. Paper nominal: 0.20.
	Beta float64
	// Window (w) is the sliding window length in quanta. Paper nominal: 30.
	Window int
	// P is the Min-Hash sketch size; 0 selects the paper's
	// min(τ/2β, 1/β) rule.
	P int
	// Seed selects the hash family member for Min-Hash.
	Seed uint64

	// MinHashOnly makes the sketch test the edge decision itself (the
	// paper's literal mechanism) instead of a screen before an exact
	// Jaccard computation. Edge weights are then sketch estimates.
	MinHashOnly bool
	// NoMinHashScreen disables sketch screening entirely and computes the
	// exact Jaccard for every candidate pair (ablation arm).
	NoMinHashScreen bool
}

// withDefaults fills zero fields with Table 2 nominal values.
func (c Config) withDefaults() Config {
	if c.Tau <= 0 {
		c.Tau = 4
	}
	if c.Beta <= 0 {
		c.Beta = 0.20
	}
	if c.Window <= 0 {
		c.Window = 30
	}
	if c.P <= 0 {
		c.P = minhash.RecommendedP(c.Tau, c.Beta)
	}
	return c
}

// QuantumStats summarises the work done by one ProcessQuantum call.
type QuantumStats struct {
	Quantum       int // 1-based quantum index
	Keywords      int // distinct keywords observed this quantum
	HighState     int // size of set 1 (bursty this quantum)
	Refreshed     int // size of set 2 (AKG keywords seen this quantum)
	PairsScreened int // candidate pairs examined
	PairsPassed   int // pairs that passed the Min-Hash screen
	EdgesAdded    int
	EdgesRemoved  int
	EdgesUpdated  int // weight refreshes on surviving edges
	NodesAdded    int
	NodesRemoved  int // stale + isolated removals
	// DirtyNodes is the number of vertices whose windowed user support
	// changed this quantum — the vertex set downstream incremental
	// maintenance (event reconciliation) revisits instead of rescanning
	// the whole graph.
	DirtyNodes int
}

// idSet is one keyword's windowed user community as two parallel
// columns: users holds the distinct users ascending — the set itself,
// read directly by the Jaccard merge, the union walks and sketch builds
// — and cnt[i] is the number of live ring quanta in which users[i] used
// the keyword. Observing a quantum merges its users in; expiring one
// decrements them and compacts away users whose count reaches zero.
type idSet struct {
	users []uint64
	cnt   []int32
	// sketch is the keyword's Min-Hash sketch, built on first use;
	// sketchStale marks it out of date with users.
	sketch      *minhash.Sketch
	sketchStale bool
}

// observe merges one quantum's users of the keyword (ascending,
// distinct) into the set and reports whether any of them was new.
func (s *idSet) observe(us []uint64) (grew bool) {
	n, added, lo := len(s.users), 0, 0
	for _, u := range us {
		i, found := seek(s.users, lo, u)
		if lo = i; found {
			s.cnt[i]++
			lo++
		} else {
			added++
		}
	}
	if added == 0 {
		return false
	}
	s.users = slices.Grow(s.users, added)[:n+added]
	s.cnt = slices.Grow(s.cnt, added)[:n+added]
	// Merge from the back so every element moves at most once; counts of
	// users already present were bumped above.
	i, w := n-1, n+added-1
	for j := len(us) - 1; j >= 0; w-- {
		switch {
		case i >= 0 && s.users[i] >= us[j]:
			if s.users[i] == us[j] {
				j--
			}
			s.users[w], s.cnt[w] = s.users[i], s.cnt[i]
			i--
		default:
			s.users[w], s.cnt[w] = us[j], 1
			j--
		}
	}
	s.sketchStale = true
	return true
}

// expire takes back one quantum's users of the keyword (ascending, all
// members) and reports whether any user left the set.
func (s *idSet) expire(us []uint64) (shrank bool) {
	first, lo := -1, 0
	for _, u := range us {
		i, found := seek(s.users, lo, u)
		if lo = i; !found {
			continue
		}
		if s.cnt[i]--; s.cnt[i] == 0 && first < 0 {
			first = i
		}
		lo++
	}
	if first < 0 {
		return false
	}
	w := first
	for i := first; i < len(s.users); i++ {
		if s.cnt[i] > 0 {
			s.users[w], s.cnt[w] = s.users[i], s.cnt[i]
			w++
		}
	}
	s.users, s.cnt = s.users[:w], s.cnt[:w]
	s.sketchStale = true
	return true
}

// seek returns the position of the first element of the ascending xs,
// at or after lo, that is ≥ u, and whether it equals u. It gallops from
// lo before bisecting, so an ascending run of targets costs O(log gap)
// each: near-linear when a quantum's users are a large share of the
// set, logarithmic when they are a few.
func seek(xs []uint64, lo int, u uint64) (int, bool) {
	hi, step := lo, 1
	for hi < len(xs) && xs[hi] < u {
		lo = hi + 1
		hi += step
		step *= 2
	}
	i, _ := slices.BinarySearch(xs[lo:min(hi, len(xs))], u)
	i += lo
	return i, i < len(xs) && xs[i] == u
}

// quantumObs is one quantum's observations in columnar form: distinct
// keywords ascending, each key's distinct users (ascending) in one
// shared slice addressed by prefix offsets. Three allocations per
// quantum retained in the ring, where the old keyword→users map cost
// one per keyword — and the window slide walks it in expiry order for
// free.
type quantumObs struct {
	keys  []dygraph.NodeID
	off   []int32 // len(keys)+1 prefix offsets into users
	users []uint64
}

// usersOf returns the distinct users of keys[i], ascending.
func (q *quantumObs) usersOf(i int) []uint64 { return q.users[q.off[i]:q.off[i+1]] }

// AKG is the active keyword graph plus the cluster engine it drives.
type AKG struct {
	cfg     Config
	eng     *core.Engine
	quantum int

	ring []quantumObs // per live quantum, oldest first

	// Per-keyword state, indexed by NodeID; grow keeps the slices the
	// same length.
	sets    []idSet
	present []bool   // keyword currently in AKG
	visit   []uint32 // refreshEdges position stamps (see there)
	slot    []int32  // observation grouping: per-key count, then cursor
	nodes   int      // number of present keywords
	stamp   uint32   // last visit stamp handed out

	// dirty is the set of vertices whose windowed support changed this
	// quantum (new user observed, or a user expired off the window).
	// Together with the engine's touched-cluster set it tells the
	// detector which clusters need their rank recomputed.
	dirty dygraph.DirtySet

	// scratch reused across quanta
	keyScratch []dygraph.NodeID
	set1       []dygraph.NodeID
	set2       []dygraph.NodeID
	refresh    []dygraph.NodeID // set2 ++ set1 concatenation for refreshEdges
	nbrs       []dygraph.NodeID // sorted-neighbor scratch
	drop       []edgeRef
	keep       []edgeRef
	weights    []float64

	// union-support scratch (single-threaded use under the apply lock).
	listScratch [][]uint64
}

type edgeRef struct{ a, b dygraph.NodeID }

// New returns an AKG layer driving a fresh cluster engine whose lifecycle
// callbacks go to hooks.
func New(cfg Config, hooks core.Hooks) *AKG {
	cfg = cfg.withDefaults()
	return &AKG{cfg: cfg, eng: core.NewEngine(hooks)}
}

// grow extends the NodeID-indexed state so that keyword k is covered.
func (a *AKG) grow(k dygraph.NodeID) {
	if int(k) < len(a.sets) {
		return
	}
	a.sets = dygraph.GrowTo(a.sets, k)
	a.present = dygraph.GrowTo(a.present, k)
	a.visit = dygraph.GrowTo(a.visit, k)
	a.slot = dygraph.GrowTo(a.slot, k)
}

// Config returns the effective configuration (defaults resolved).
func (a *AKG) Config() Config { return a.cfg }

// Engine exposes the cluster engine (read-only use).
func (a *AKG) Engine() *core.Engine { return a.eng }

// Quantum returns the number of quanta processed so far.
func (a *AKG) Quantum() int { return a.quantum }

// Support returns the number of distinct users associated with keyword k
// inside the current window — the node weight w_i of the ranking function
// (Section 6).
func (a *AKG) Support(k dygraph.NodeID) int { return len(a.sortedUsers(k)) }

// sortedUsers returns keyword k's distinct windowed users, ascending
// (nil for an unseen keyword). The slice is the id set's own column,
// valid until the next ProcessQuantum.
func (a *AKG) sortedUsers(k dygraph.NodeID) []uint64 {
	if int(k) >= len(a.sets) {
		return nil
	}
	return a.sets[k].users
}

// UnionSupport returns the number of distinct users associated with any of
// the given keywords inside the window — the cluster support measure of
// the ranking function (Section 6). Computed as a k-way distinct count
// over the cached sorted user lists (k is a cluster's node count, a
// handful), replacing the per-call union map the apply path used to
// build for every dirty cluster every quantum. Single-threaded use.
func (a *AKG) UnionSupport(ks []dygraph.NodeID) int {
	lists := a.listScratch[:0]
	for _, k := range ks {
		if u := a.sortedUsers(k); len(u) > 0 {
			lists = append(lists, u)
		}
	}
	a.listScratch = lists[:0]
	return countDistinct(lists)
}

// countDistinct counts the distinct values across sorted ascending
// lists (duplicate-free individually) by advancing k cursors in step.
func countDistinct(lists [][]uint64) int {
	switch len(lists) {
	case 0:
		return 0
	case 1:
		return len(lists[0])
	}
	distinct := 0
	for {
		var (
			min   uint64
			found bool
		)
		for _, l := range lists {
			if len(l) == 0 {
				continue
			}
			if !found || l[0] < min {
				min, found = l[0], true
			}
		}
		if !found {
			return distinct
		}
		distinct++
		for i, l := range lists {
			if len(l) > 0 && l[0] == min {
				lists[i] = l[1:]
			}
		}
	}
}

// DirtyNodes returns the vertices whose windowed user support changed
// during the last ProcessQuantum, in mark order. Valid until the next
// ProcessQuantum. Structural changes (edges added/removed/reweighted,
// nodes added/removed) are tracked separately by the engine's
// touched-cluster set; together the two describe every cluster whose
// rank inputs could have moved.
func (a *AKG) DirtyNodes() []dygraph.NodeID { return a.dirty.Nodes() }

// InAKG reports whether keyword k is currently an AKG node.
func (a *AKG) InAKG(k dygraph.NodeID) bool { return int(k) < len(a.present) && a.present[k] }

// NodeCount returns the number of AKG nodes.
func (a *AKG) NodeCount() int { return a.nodes }

// EdgeCount returns the number of AKG edges.
func (a *AKG) EdgeCount() int { return a.eng.Graph().EdgeCount() }

// ProcessQuantum ingests one quantum of per-user keyword sets (keywords
// must be distinct within each user's set) and performs the five
// maintenance steps described in the package comment.
func (a *AKG) ProcessQuantum(batch []ckg.UserKeywords) QuantumStats {
	a.quantum++
	st := QuantumStats{Quantum: a.quantum}
	a.eng.BeginQuantum()
	a.dirty.Reset()

	a.slideWindow(&st)

	// Observe this quantum: group the batch's (keyword, user) pairs by
	// keyword into the columnar ring entry, in expiry order. A key's slot
	// first counts its users (collecting the distinct keys), then — once
	// the distinct keys are sorted and laid out — serves as its write
	// cursor. Users ascend across the batch, so every group comes out
	// user-ascending.
	keys, total := a.keyScratch[:0], 0
	for _, uk := range batch {
		for _, k := range uk.Keywords {
			a.grow(k)
			if a.slot[k] == 0 {
				keys = append(keys, k)
			}
			a.slot[k]++
		}
		total += len(uk.Keywords)
	}
	a.keyScratch = keys
	slices.Sort(keys)
	obs := quantumObs{
		keys:  slices.Clone(keys),
		off:   make([]int32, len(keys)+1),
		users: make([]uint64, total),
	}
	for i, k := range keys {
		obs.off[i+1] = obs.off[i] + a.slot[k]
		a.slot[k] = obs.off[i]
	}
	for _, uk := range batch {
		for _, k := range uk.Keywords {
			obs.users[a.slot[k]] = uk.User
			a.slot[k]++
		}
	}
	for i, k := range obs.keys {
		a.slot[k] = 0
		// A keyword whose distinct-user set grew is support-dirty: its
		// node weight in the ranking function changed.
		if a.sets[k].observe(obs.usersOf(i)) {
			a.dirty.Mark(k)
		}
	}
	a.ring = append(a.ring, obs)
	st.Keywords = len(obs.keys)

	// Classify: set1 = bursty this quantum; set2 = in AKG and observed.
	// Keys are already ascending, so both lists come out sorted.
	set1, set2 := a.set1[:0], a.set2[:0]
	for i, k := range obs.keys {
		if int(obs.off[i+1]-obs.off[i]) >= a.cfg.Tau {
			set1 = append(set1, k)
		} else if a.present[k] {
			set2 = append(set2, k)
		}
	}
	// Bursty AKG members count for both roles; set2 handling below walks
	// set1 members' existing neighbors too, so keep the lists disjoint.
	a.set1, a.set2 = set1, set2
	st.HighState = len(set1)
	st.Refreshed = len(set2)

	// Admit bursty keywords.
	for _, k := range set1 {
		if !a.present[k] {
			a.present[k] = true
			a.nodes++
			a.eng.AddNode(k)
			st.NodesAdded++
		}
	}

	// Lazy correlation refresh for observed AKG keywords and bursty
	// keywords that already have neighbors.
	a.refresh = append(append(a.refresh[:0], set2...), set1...)
	a.refreshEdges(a.refresh, &st)

	// New edges among set-1 pairs.
	a.connectBursty(set1, &st)

	// Isolated, non-bursty keywords leave the AKG (they are in no
	// cluster by construction). Set 2 is exactly the observed
	// non-bursty members.
	for _, k := range set2 {
		if a.present[k] && a.eng.Graph().Degree(k) == 0 {
			a.removeNode(k, &st)
		}
	}
	st.DirtyNodes = a.dirty.Len()
	return st
}

// removeNode takes keyword k out of the AKG.
func (a *AKG) removeNode(k dygraph.NodeID, st *QuantumStats) {
	a.eng.RemoveNode(k)
	a.present[k] = false
	a.nodes--
	st.NodesRemoved++
}

// slideWindow expires the oldest quantum once the ring is full and removes
// keywords whose id sets emptied (stale: unseen for a whole window).
func (a *AKG) slideWindow(st *QuantumStats) {
	if len(a.ring) < a.cfg.Window {
		return
	}
	oldest := a.ring[0]
	copy(a.ring, a.ring[1:])
	a.ring = a.ring[:len(a.ring)-1]
	// Keys are stored ascending, so expiry is naturally sorted: node
	// removals reach the engine, where split identities must be
	// reproducible across runs.
	for ki, k := range oldest.keys {
		set := &a.sets[k]
		if set.expire(oldest.usersOf(ki)) {
			// Support shrank without any engine mutation; clusters
			// containing k must still be re-ranked.
			a.dirty.Mark(k)
		}
		if len(set.users) == 0 {
			*set = idSet{} // release the columns and sketch
			if a.present[k] {
				a.removeNode(k, st)
			}
		}
	}
}

// refreshEdges re-evaluates the EC of every edge incident to the given
// keywords (each edge once), removing edges under threshold and updating
// surviving weights — Section 3.1's lazy update principle.
//
// Each processed key is stamped with a fresh position; edge (k,m) was
// already evaluated exactly when m is an earlier key of this call,
// i.e. when m's stamp is newer than the call's base.
func (a *AKG) refreshEdges(keys []dygraph.NodeID, st *QuantumStats) {
	if a.stamp > math.MaxUint32-uint32(len(keys)) {
		clear(a.visit)
		a.stamp = 0
	}
	base := a.stamp
	drop, keep, weights := a.drop[:0], a.keep[:0], a.weights[:0]
	for _, k := range keys {
		if !a.present[k] {
			continue
		}
		a.stamp++
		a.visit[k] = a.stamp
		// Sorted neighbor iteration: removal order reaches the engine,
		// where split identities must be reproducible across runs.
		a.nbrs = a.eng.Graph().AppendNeighbors(a.nbrs[:0], k)
		for _, m := range a.nbrs {
			if a.visit[m] > base {
				continue
			}
			j := a.correlation(k, m)
			if j < a.cfg.Beta {
				drop = append(drop, edgeRef{k, m})
			} else {
				keep = append(keep, edgeRef{k, m})
				weights = append(weights, j)
			}
		}
	}
	a.drop, a.keep, a.weights = drop, keep, weights
	for _, e := range drop {
		a.eng.RemoveEdge(e.a, e.b)
		st.EdgesRemoved++
	}
	for i, e := range keep {
		a.eng.SetWeight(e.a, e.b, weights[i])
		st.EdgesUpdated++
	}
}

// connectBursty screens set-1 pairs with Min-Hash and inserts edges whose
// correlation clears β.
func (a *AKG) connectBursty(set1 []dygraph.NodeID, st *QuantumStats) {
	if len(set1) < 2 {
		return
	}
	if !a.cfg.NoMinHashScreen {
		a.buildSketches(set1)
	}
	for i := 0; i < len(set1); i++ {
		for j := i + 1; j < len(set1); j++ {
			k1, k2 := set1[i], set1[j]
			if a.eng.Graph().HasEdge(k1, k2) {
				continue // already refreshed this quantum
			}
			st.PairsScreened++
			var w float64
			switch {
			case a.cfg.MinHashOnly:
				if !minhash.SharesValue(a.sets[k1].sketch, a.sets[k2].sketch) {
					continue
				}
				st.PairsPassed++
				w = minhash.EstimateJaccard(a.sets[k1].sketch, a.sets[k2].sketch)
				if w <= 0 {
					continue
				}
			case a.cfg.NoMinHashScreen:
				st.PairsPassed++
				w = a.jaccardCached(k1, k2)
				if w < a.cfg.Beta {
					continue
				}
			default:
				if !minhash.SharesValue(a.sets[k1].sketch, a.sets[k2].sketch) {
					continue
				}
				st.PairsPassed++
				w = a.jaccardCached(k1, k2)
				if w < a.cfg.Beta {
					continue
				}
			}
			a.eng.AddEdge(k1, k2, w)
			st.EdgesAdded++
		}
	}
}

// jaccardCached is the exact Jaccard coefficient of two keywords'
// windowed user sets, computed as a linear merge of their sorted user
// columns. Contract: for values ≥ β the
// result is exact (callers store it as the edge weight); below β
// callers only compare against β and discard, so a provable sub-β pair
// may return 0 without the merge — J ≤ min/max, giving an O(1)
// rejection for size-skewed pairs.
func (a *AKG) jaccardCached(k1, k2 dygraph.NodeID) float64 {
	u1 := a.sortedUsers(k1)
	u2 := a.sortedUsers(k2)
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	lo, hi := len(u1), len(u2)
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo) < a.cfg.Beta*float64(hi) {
		return 0 // J ≤ lo/hi < β: unobservable below the threshold
	}
	// needInter is the intersection size below which J < β is certain
	// (J ≥ β ⇔ inter ≥ β(n1+n2)/(1+β)); the merge bails as soon as even
	// a perfect remaining overlap cannot reach it. The 0.25 margin
	// absorbs the float rounding of needInter: intersections are
	// integers, so a pair at exactly β can never be misclassified. The
	// bound is folded into one integer per comparison so the hot merge
	// loop pays a single subtract-and-compare.
	needInter := int(math.Ceil(a.cfg.Beta*float64(len(u1)+len(u2))/(1+a.cfg.Beta) - 0.25))
	inter := 0
	i, j := 0, 0
	for i < len(u1) && j < len(u2) {
		rem := len(u1) - i
		if r2 := len(u2) - j; r2 < rem {
			rem = r2
		}
		if inter+rem < needInter {
			return 0 // cannot reach β anymore
		}
		switch {
		case u1[i] == u2[j]:
			inter++
			i++
			j++
		case u1[i] < u2[j]:
			i++
		default:
			j++
		}
	}
	union := len(u1) + len(u2) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AppendUnionUsers appends the distinct users supporting any of ks
// (sorted ascending) to dst, reusing its capacity — the same k-way walk
// as UnionSupport, emitting the values. Single-threaded use only.
func (a *AKG) AppendUnionUsers(dst []uint64, ks []dygraph.NodeID) []uint64 {
	lists := a.listScratch[:0]
	for _, k := range ks {
		if u := a.sortedUsers(k); len(u) > 0 {
			lists = append(lists, u)
		}
	}
	defer func() { a.listScratch = lists[:0] }()
	if len(lists) == 1 {
		return append(dst, lists[0]...)
	}
	for {
		var (
			min   uint64
			found bool
		)
		for _, l := range lists {
			if len(l) == 0 {
				continue
			}
			if !found || l[0] < min {
				min, found = l[0], true
			}
		}
		if !found {
			return dst
		}
		dst = append(dst, min)
		for i, l := range lists {
			if len(l) > 0 && l[0] == min {
				lists[i] = l[1:]
			}
		}
	}
}

// JaccardSorted returns |A∩B| / |A∪B| of two sorted duplicate-free user
// lists — the merge-based form of UserJaccard for callers that hold the
// union lists already (0 when either is empty, like UserJaccard).
func JaccardSorted(u1, u2 []uint64) float64 {
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(u1) && j < len(u2) {
		switch {
		case u1[i] == u2[j]:
			inter++
			i++
			j++
		case u1[i] < u2[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(u1)+len(u2)-inter)
}

// correlation returns the EC used for edge decisions, honouring the
// MinHashOnly switch.
func (a *AKG) correlation(k1, k2 dygraph.NodeID) float64 {
	if a.cfg.MinHashOnly {
		pair := [2]dygraph.NodeID{k1, k2}
		a.buildSketches(pair[:])
		s1, s2 := a.sets[k1].sketch, a.sets[k2].sketch
		if !minhash.SharesValue(s1, s2) {
			return 0
		}
		return minhash.EstimateJaccard(s1, s2)
	}
	return a.jaccardCached(k1, k2)
}

// buildSketches ensures window sketches for the given keywords are
// current. Sketches cannot subtract expired users, so a keyword's
// sketch is rebuilt from its user column — but only when the set's
// membership actually changed since the last build (the sketch is a
// pure function of the membership set, insertion-order independent),
// which preserves the paper's per-quantum p-Min-Hash semantics at a
// fraction of the hashing cost.
func (a *AKG) buildSketches(keys []dygraph.NodeID) {
	for _, k := range keys {
		set := &a.sets[k]
		switch {
		case set.sketch == nil:
			set.sketch = minhash.New(a.cfg.P, a.cfg.Seed)
		case set.sketchStale:
			set.sketch.Reset()
		default:
			continue
		}
		for _, u := range set.users {
			set.sketch.Add(u)
		}
		set.sketchStale = false
	}
}
