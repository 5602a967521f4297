package akg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dygraph"
)

// QuantumObs is the serialisable observation record of one quantum:
// keyword -> distinct users who used it. Slices are sorted for stable
// snapshots.
type QuantumObs struct {
	Keywords []dygraph.NodeID
	Users    [][]uint64 // parallel to Keywords
}

// State is a serialisable snapshot of the AKG layer. The per-keyword id
// sets are not stored: they are exactly the column sums of the window
// ring and are rebuilt on restore.
type State struct {
	Cfg     Config
	Quantum int
	Ring    []QuantumObs
	Engine  core.EngineState
	Present []dygraph.NodeID
}

// State captures the layer.
func (a *AKG) State() State {
	s := State{
		Cfg:     a.cfg,
		Quantum: a.quantum,
		Engine:  a.eng.State(),
	}
	for _, obs := range a.ring {
		// The runtime ring is already keyword-ascending with users
		// ascending per keyword — exactly the snapshot shape.
		q := QuantumObs{Keywords: append([]dygraph.NodeID(nil), obs.keys...)}
		for i := range obs.keys {
			q.Users = append(q.Users, append([]uint64(nil), obs.usersOf(i)...))
		}
		s.Ring = append(s.Ring, q)
	}
	for k, in := range a.present {
		if in {
			s.Present = append(s.Present, dygraph.NodeID(k))
		}
	}
	return s
}

// FromState reconstructs the layer (id sets rebuilt from the ring) and
// re-attaches lifecycle hooks to the restored engine. ids is the size of
// the keyword ID space (the interner's): per-keyword state is sized by
// the largest ID, so a ring, Present or engine node ID ≥ ids is rejected
// rather than allocated for, as are ring keywords or per-keyword users
// that are not strictly ascending.
func FromState(s State, hooks core.Hooks, ids int) (*AKG, error) {
	if len(s.Ring) > s.Cfg.withDefaults().Window {
		return nil, fmt.Errorf("akg: ring holds %d quanta, window is %d", len(s.Ring), s.Cfg.withDefaults().Window)
	}
	eng, err := core.EngineFromState(s.Engine, hooks)
	if err != nil {
		return nil, err
	}
	outside := func(k dygraph.NodeID) bool { return uint64(k) >= uint64(ids) }
	for _, k := range eng.Graph().Nodes() {
		if outside(k) {
			return nil, fmt.Errorf("akg: engine node %d outside the %d-keyword ID space", k, ids)
		}
	}
	a := New(s.Cfg, hooks)
	a.eng = eng
	a.quantum = s.Quantum
	for qi, q := range s.Ring {
		if len(q.Keywords) != len(q.Users) {
			return nil, fmt.Errorf("akg: ring entry has %d keywords, %d user lists", len(q.Keywords), len(q.Users))
		}
		total := 0
		for i, k := range q.Keywords {
			switch {
			case outside(k):
				return nil, fmt.Errorf("akg: ring quantum %d keyword %d outside the %d-keyword ID space", qi, k, ids)
			case i > 0 && k <= q.Keywords[i-1]:
				return nil, fmt.Errorf("akg: ring quantum %d keywords not strictly ascending at %d", qi, k)
			case len(q.Users[i]) == 0:
				return nil, fmt.Errorf("akg: ring quantum %d keyword %d has no users", qi, k)
			}
			for j := 1; j < len(q.Users[i]); j++ {
				if q.Users[i][j] <= q.Users[i][j-1] {
					return nil, fmt.Errorf("akg: ring quantum %d keyword %d users not strictly ascending", qi, k)
				}
			}
			total += len(q.Users[i])
		}
		obs := quantumObs{
			keys:  append([]dygraph.NodeID(nil), q.Keywords...),
			off:   make([]int32, 1, len(q.Keywords)+1),
			users: make([]uint64, 0, total),
		}
		for i, k := range q.Keywords {
			obs.users = append(obs.users, q.Users[i]...)
			obs.off = append(obs.off, int32(len(obs.users)))
			a.grow(k)
			a.sets[k].observe(q.Users[i])
		}
		a.ring = append(a.ring, obs)
	}
	for _, k := range s.Present {
		switch {
		case outside(k):
			return nil, fmt.Errorf("akg: present keyword %d outside the %d-keyword ID space", k, ids)
		case !a.eng.Graph().HasNode(k):
			return nil, fmt.Errorf("akg: present keyword %d missing from engine graph", k)
		}
		a.grow(k)
		if a.present[k] {
			return nil, fmt.Errorf("akg: present keyword %d listed twice", k)
		}
		a.present[k] = true
		a.nodes++
	}
	if a.eng.Graph().NodeCount() != a.nodes {
		return nil, fmt.Errorf("akg: engine graph has %d nodes but %d present keywords",
			a.eng.Graph().NodeCount(), a.nodes)
	}
	return a, nil
}
