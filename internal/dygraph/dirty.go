package dygraph

// DirtySet accumulates the vertices touched within one maintenance
// quantum — the basis for incremental graph upkeep: downstream passes
// (correlation refresh, event reconciliation) visit only dirty vertices
// and their clusters instead of rescanning the whole graph. Membership
// is a NodeID-indexed mark slice, so node IDs should be dense (interned).
// The zero value is ready to use; Reset clears only the marked entries
// and reuses all storage, so a set that lives on a long-running layer
// allocates only while the high-water mark grows.
type DirtySet struct {
	marked []bool
	nodes  []NodeID
}

// Mark records n as touched this quantum. Duplicate marks are cheap
// no-ops.
func (d *DirtySet) Mark(n NodeID) {
	if d.Contains(n) {
		return
	}
	d.marked = GrowTo(d.marked, n)
	d.marked[n] = true
	d.nodes = append(d.nodes, n)
}

// Contains reports whether n was marked since the last Reset.
func (d *DirtySet) Contains(n NodeID) bool {
	return int(n) < len(d.marked) && d.marked[n]
}

// Len returns the number of distinct marked vertices.
func (d *DirtySet) Len() int { return len(d.nodes) }

// Nodes returns the marked vertices in mark order. The slice is owned
// by the set and valid only until the next Reset.
func (d *DirtySet) Nodes() []NodeID { return d.nodes }

// Reset clears the set for the next quantum, keeping the backing
// storage.
func (d *DirtySet) Reset() {
	for _, n := range d.nodes {
		d.marked[n] = false
	}
	d.nodes = d.nodes[:0]
}

// GrowTo returns s lengthened with zero values, if needed, so that s[n]
// is valid — the one growth rule for NodeID-indexed state. append's
// capacity doubling amortises a vocabulary that grows one ID at a time.
func GrowTo[E any](s []E, n NodeID) []E {
	if int(n) < len(s) {
		return s
	}
	return append(s, make([]E, int(n)+1-len(s))...)
}
