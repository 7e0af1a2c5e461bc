package core

// The decision memo: what the loop decides at a state — the best k-set
// with its E[Cor], the greedy head with its usefulness — is a function
// of that state alone (the version's RD rows, the query, k, the metric
// and the probes folded so far), so a ModelVersion remembers it. The
// memo is a tree. A root is one (query, numTerms, metric, k); an edge
// is one probe answer (database, observed value); a node holds, once
// somebody has computed them, the two decisions of the state its path
// leads to. A Selection filled from the version carries a pointer to its
// state's node: ApplyProbe follows the edge, best() and
// Greedy.Rank(s, t, 1) read the node or compute exactly as without one
// and store. Nothing
// about the answer comes from memory — every probe is still sent, and
// what it returns picks the edge — so the memo cannot be stale towards
// the backends; towards the model it lives and dies with the version:
//
//   - NewModelVersion and Next start empty, so a refresh, a reload or a
//     retrain drops everything remembered.
//   - Online refinement republishes rows once per epochObservations
//     observations (publishRows): it stores nil in the version's slot,
//     then the rows, then a fresh empty tree. FillSelection loads the slot
//     before its first row read and attaches only if the slot holds that
//     same tree after its last. A fill that read any republished row
//     therefore sees another tree or none, and remembers nothing; one
//     that attaches read exactly the rows its tree's decisions were made
//     from, and keeps its nodes when the tree is replaced.
//   - The threshold t, the prober and the forms of Rank that depend on
//     more than the state (m > 1, a Cost function) are outside the memo.
//
// Nodes live in chunks the tree allocates as it grows and refer to one
// another by index, so a node holds no pointer: the collector never scans
// a chunk, and remembering a first-sight query costs it nothing to mark
// and one allocation per memoChunk nodes. Everything is published by
// compare-and-swap and immutable once visible: a child list is a chain of
// nodes pushed at its head, so adding a child copies nothing and a reader
// walks a list that can only grow in front of where it started; a
// decision is written by whoever wins its flag from unset and read only
// after the flag says set. Two goroutines that miss on one node both
// compute the same bits and one of them stores.
//
// Memory is bounded by a node count, not an eviction order: when a tree
// has memoMaxNodes nodes the next one starts a fresh tree in its place.
// Selections in flight keep the nodes they hold (and add none); what
// traffic still asks for is remembered again on its next visit. An LRU
// would need a lock or per-hit writes on a path that today has neither.

import "sync/atomic"

const (
	// memoMaxNodes bounds one version's tree: 32 768 nodes of 80 bytes are
	// 2.5 MiB. A root adds its key, tree and node pointers and chain link
	// (72 bytes) and retains the query string (say 64); every root has a
	// node, and a query that takes at least one probe has more nodes than
	// roots, so at most half the nodes are roots' — another 2.1 MiB. With
	// the tree's own 17 KiB of bucket and chunk heads a full memo is under
	// 5 MiB, inside the 8 it is allowed. TestDecisionMemoNodeSizes holds
	// the struct sizes this arithmetic uses.
	memoMaxNodes = 1 << 15
	// memoChunkBits sizes a chunk: 512 nodes, 40 KiB, so a version that
	// sees a handful of queries pays for one.
	memoChunkBits = 9
	// memoBuckets sizes the root table: with a handful of nodes per query
	// a full tree has a few thousand roots, two or three to a bucket.
	memoBuckets = 1 << 11
	// memoMaxK is the largest k-set a node has room for; selections of
	// more databases than that remember nothing.
	memoMaxK = 8
	// epochObservations is how many observations a version folds into its
	// EDs before it republishes their rows and starts a fresh tree. A tree
	// serves repeats only within its epoch, so a longer one is faster; rows
	// that lag cost probes, because a hot query's own observations sharpen
	// its RDs later. On the churn workload (EXPERIMENTS.md, E-EPOCH) 64
	// took 24 % off the median latency for 1.5 % more probes per query,
	// 128 took 28 % for 2.4 % — past the 2 % the benchmark lets a
	// speed-up cost.
	epochObservations = 64
)

// A decision's flag: unset, being written by the goroutine that took it
// from unset, set — or, for the rank, set to "no informative probe".
const (
	memoUnset uint32 = iota
	memoWriting
	memoSet
	memoNoProbe
)

// memoKey identifies a root: everything besides the version's rows that
// a selection's initial state is derived from.
type memoKey struct {
	query    string
	numTerms int
	metric   Metric
	k        int
}

func (k *memoKey) hash() uint64 {
	const prime = 1099511628211 // FNV-1a
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.query); i++ {
		h = (h ^ uint64(k.query[i])) * prime
	}
	for _, x := range [...]int{k.numTerms, int(k.metric), k.k} {
		h = (h ^ uint64(x)) * prime
	}
	return h ^ h>>32
}

// memoNode is one state. db, value and next are the edge from the parent
// and the index of the parent's child added before this one; they are
// written before the node is published and never after. set and e are the
// state's best k-set (ascending) and its E[Cor], valid once best reads
// memoSet; head and u its greedy head and that database's usefulness,
// valid once rank does. Indices count from 1; 0 is none.
type memoNode struct {
	value, e, u    float64
	db, next, head int32
	kids           atomic.Int32 // newest child
	best, rank     atomic.Uint32
	set            [memoMaxK]int32
}

// bestInto copies the remembered best k-set into buf and returns it with
// its E[Cor]; false when nobody has stored one yet.
func (n *memoNode) bestInto(buf []int) ([]int, float64, bool) {
	if n.best.Load() != memoSet {
		return nil, 0, false
	}
	for i := range buf {
		buf[i] = int(n.set[i])
	}
	return buf, n.e, true
}

// setBest remembers the state's best k-set, unless somebody else has or
// is about to.
func (n *memoNode) setBest(set []int, e float64) {
	if n.best.CompareAndSwap(memoUnset, memoWriting) {
		for i, db := range set {
			n.set[i] = int32(db)
		}
		n.e = e
		n.best.Store(memoSet)
	}
}

// setRank remembers the state's greedy head, or with memoNoProbe that it
// has none.
func (n *memoNode) setRank(state uint32, head int, u float64) {
	if n.rank.CompareAndSwap(memoUnset, memoWriting) {
		n.head, n.u = int32(head), u
		n.rank.Store(state)
	}
}

// memoRoot is an unprobed state: its key, its node, and the next root in
// its bucket.
type memoRoot struct {
	key   memoKey
	tree  *memoTree
	node  *memoNode
	chain *memoRoot
}

type memoChunk [1 << memoChunkBits]memoNode

// memoTree is one version's memo. slot is where the version keeps it:
// nil there means rows are being republished, and a full tree replaces
// itself there.
// nodes counts the nodes handed out, which is also the last one's index.
type memoTree struct {
	slot    *atomic.Pointer[memoTree]
	nodes   atomic.Int32
	chunks  [memoMaxNodes >> memoChunkBits]atomic.Pointer[memoChunk]
	buckets [memoBuckets]atomic.Pointer[memoRoot]
}

// startMemo puts an empty tree into slot.
func startMemo(slot *atomic.Pointer[memoTree]) {
	slot.Store(&memoTree{slot: slot})
}

// at returns the node with index i > 0.
func (t *memoTree) at(i int32) *memoNode {
	i--
	return &t.chunks[i>>memoChunkBits].Load()[i&(1<<memoChunkBits-1)]
}

// alloc hands out the tree's next node and its index. At the limit it
// returns nil and starts a fresh tree in this one's place, unless a row
// publication or somebody else has replaced it already. A node
// handed out and then not published — its caller lost a race to add the
// same edge — stays counted: a hole, and rare.
func (t *memoTree) alloc() (*memoNode, int32) {
	for {
		n := t.nodes.Load()
		if n >= memoMaxNodes {
			if t.slot.Load() == t {
				t.slot.CompareAndSwap(t, &memoTree{slot: t.slot})
			}
			return nil, 0
		}
		if !t.nodes.CompareAndSwap(n, n+1) {
			continue
		}
		chunk := &t.chunks[n>>memoChunkBits]
		if chunk.Load() == nil {
			chunk.CompareAndSwap(nil, new(memoChunk))
		}
		return t.at(n + 1), n + 1
	}
}

// root returns key's root, adding it if need be; nil when the tree is
// full.
func (t *memoTree) root(key memoKey) *memoRoot {
	bucket := &t.buckets[key.hash()%memoBuckets]
	var fresh *memoRoot
	for {
		head := bucket.Load()
		for r := head; r != nil; r = r.chain {
			if r.key == key {
				return r
			}
		}
		if fresh == nil {
			node, _ := t.alloc()
			if node == nil {
				return nil
			}
			fresh = &memoRoot{key: key, tree: t, node: node}
		}
		fresh.chain = head
		if bucket.CompareAndSwap(head, fresh) {
			return fresh
		}
	}
}

// child returns the node the answer v from database db leads to, adding
// it if need be; nil when the tree is full, or v is NaN — which equals
// nothing, itself included, so no edge could ever be found again.
func (n *memoNode) child(t *memoTree, db int, v float64) *memoNode {
	if v != v {
		return nil
	}
	var fresh *memoNode
	var index int32
	for {
		head := n.kids.Load()
		for i := head; i != 0; {
			c := t.at(i)
			if c.db == int32(db) && c.value == v {
				return c
			}
			i = c.next
		}
		if fresh == nil {
			if fresh, index = t.alloc(); fresh == nil {
				return nil
			}
			fresh.db, fresh.value = int32(db), v
		}
		fresh.next = head
		if n.kids.CompareAndSwap(head, index) {
			return fresh
		}
	}
}

// attachMemo points the selection — in its initial, unprobed state — at
// its root in t, or detaches it: when t is nil or full, and when k is one
// of the degenerate values the best set needs no search for or more than a
// node has room for.
func (s *Selection) attachMemo(t *memoTree, numTerms int) {
	s.memoRoot, s.memo = nil, nil
	if t == nil || s.k <= 0 || s.k >= len(s.rds) || s.k > memoMaxK {
		return
	}
	if r := t.root(memoKey{query: s.query, numTerms: numTerms, metric: s.metric, k: s.k}); r != nil {
		s.memoRoot, s.memo = r, r.node
	}
}

// memoNode returns the node decisions at the current state are read from
// and stored to: nil when the selection is detached, inside a hypothesis
// (those states are the sweep's own) or pinned to the reference path
// (whose usefulness differs from the scratch's by round-off).
func (s *Selection) memoNode() *memoNode {
	if s.hypDepth != 0 || s.noScratch {
		return nil
	}
	return s.memo
}

// Memo reports how many nodes the version's decision memo holds and
// whether it is on (it is except while rows are being republished).
func (v *ModelVersion) Memo() (nodes int, on bool) {
	t := v.memo.Load()
	if t == nil {
		return 0, false
	}
	return int(t.nodes.Load()), true
}
