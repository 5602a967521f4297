package detect

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/akg"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// goldenCases pins the full event history of small synthetic traces:
// every quantum's lifecycle output and the final AllEvents, hashed. A
// change that moves one of these digests changed what the detector
// reports — an optimisation must leave them alone.
var goldenCases = []struct {
	name   string
	cfg    Config
	msgs   func() []stream.Message
	digest string
}{
	{
		name: "tw",
		cfg:  Config{Delta: 160},
		msgs: func() []stream.Message {
			m, _ := tracegen.Generate(tracegen.TWConfig(21, 16000))
			return m
		},
		digest: "60fc75b3a30a393d85dc0bf0477f1b4525c1ebb7aaec0af5ec11c72c2618dd3d",
	},
	{
		name: "es",
		cfg:  Config{Delta: 160},
		msgs: func() []stream.Message {
			m, _ := tracegen.Generate(tracegen.ESConfig(33, 16000))
			return m
		},
		digest: "68a2f955ff6715bc2731a82392213a909f32122d132ae11dd89ee5be7f62cddb",
	},
	{
		name:   "flood",
		cfg:    Config{Delta: 160},
		msgs:   func() []stream.Message { return tracegen.FloodConfig{Seed: 5}.Messages(0, 9600) },
		digest: "3d2a5ca195f6b635e6cfcac7b96409fcdfaab5ea7944d1c3a7816716172da579",
	},
	{
		name: "tw-minhash-only",
		cfg:  Config{Delta: 120, AKG: akg.Config{MinHashOnly: true, Window: 4}},
		msgs: func() []stream.Message {
			m, _ := tracegen.Generate(tracegen.TWConfig(34, 2400))
			return m
		},
		digest: "d5fb2a38974b1cd1613eaad8955380293d598db895f695e4e288e19ed0a5b681",
	},
	{
		name: "tw-exact-short-window",
		cfg:  Config{Delta: 100, AKG: akg.Config{NoMinHashScreen: true, Window: 8}},
		msgs: func() []stream.Message {
			m, _ := tracegen.Generate(tracegen.TWConfig(22, 9600))
			return m
		},
		digest: "a9364ba3e6476dbc11f91d5cf6ac88f3be0cd781f88d32895136f2d21621c498",
	},
}

// TestGoldenHistoryDigests runs each golden trace serially, through
// RunParallel, and through a Save/Load round trip at the middle quantum;
// all three must hash to the pinned digest. Float rank bits are only
// pinned on amd64 (other architectures may fuse multiply-adds), so the
// test skips elsewhere.
func TestGoldenHistoryDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests pin amd64 float results; GOARCH=%s may round differently", runtime.GOARCH)
	}
	for _, gc := range goldenCases {
		msgs := gc.msgs()
		quanta := len(msgs) / gc.cfg.Delta
		runs := map[string]func(*historyHash) error{
			"serial": func(h *historyHash) error {
				d := New(gc.cfg)
				if err := d.Run(stream.NewSliceSource(msgs), h.quantum); err != nil {
					return err
				}
				h.events(d)
				return nil
			},
			"parallel": func(h *historyHash) error {
				d := New(gc.cfg)
				if err := d.RunParallel(stream.NewSliceSource(msgs), 2, h.quantum); err != nil {
					return err
				}
				h.events(d)
				return nil
			},
			"saveload": func(h *historyHash) error {
				d := New(gc.cfg)
				i := 0
				for ; i < len(msgs) && d.AKG().Quantum() < quanta/2; i++ {
					for _, res := range d.IngestAll(msgs[i]) {
						h.quantum(res)
					}
				}
				var buf bytes.Buffer
				if err := d.Save(&buf); err != nil {
					return err
				}
				d, err := Load(&buf)
				if err != nil {
					return err
				}
				if err := d.Run(stream.NewSliceSource(msgs[i:]), h.quantum); err != nil {
					return err
				}
				h.events(d)
				return nil
			},
		}
		for _, mode := range []string{"serial", "parallel", "saveload"} {
			t.Run(gc.name+"/"+mode, func(t *testing.T) {
				h := newHistoryHash()
				if err := runs[mode](h); err != nil {
					t.Fatal(err)
				}
				if got := h.sum(); got != gc.digest {
					t.Errorf("history digest = %s, pinned %s", got, gc.digest)
				}
			})
		}
	}
}

// historyHash folds a detector's observable output into SHA-256: every
// field of every QuantumResult except the wall-clock *Elapsed timings,
// then every field of every event. Floats enter as their IEEE bits.
type historyHash struct{ h hash.Hash }

func newHistoryHash() *historyHash { return &historyHash{h: sha256.New()} }

func (g *historyHash) float(f float64) { fmt.Fprintf(g.h, "%x ", math.Float64bits(f)) }

func (g *historyHash) quantum(r *QuantumResult) {
	fmt.Fprintf(g.h, "Q%d %+v akg=%d/%d ckg=%d/%d born=%v ended=%v merged=%v\n",
		r.Quantum, r.Stats, r.AKGNodes, r.AKGEdges, r.CKGNodes, r.CKGEdges, r.Born, r.Ended, r.Merged)
	for _, rep := range r.Reports {
		fmt.Fprintf(g.h, "R%d q=%d %q size=%d sup=%d born=%d evolved=%v rank=",
			rep.EventID, rep.Quantum, rep.Keywords, rep.Size, rep.Support, rep.Born, rep.Evolved)
		g.float(rep.Rank)
		fmt.Fprintln(g.h)
	}
}

func (g *historyHash) events(d *Detector) {
	for _, ev := range d.AllEvents() {
		all := make([]string, 0, len(ev.AllKeywords))
		for kw := range ev.AllKeywords {
			all = append(all, kw)
		}
		slices.Sort(all)
		fmt.Fprintf(g.h, "E%d c=%d born=%d last=%d %q evolved=%v into=%d from=%d %v sup=%d size=%d rep=%v first=%d all=%q mqc=%v ranks=",
			ev.ID, ev.ClusterID, ev.BornQuantum, ev.LastQuantum, ev.Keywords, ev.Evolved,
			ev.MergedInto, ev.SplitFrom, ev.State, ev.Support, ev.Size, ev.Reported,
			ev.FirstReported, all, ev.ExactMQC)
		g.float(ev.Rank)
		g.float(ev.PeakRank)
		for _, r := range ev.RankHistory {
			g.float(r)
		}
		fmt.Fprintln(g.h)
	}
}

func (g *historyHash) sum() string { return hex.EncodeToString(g.h.Sum(nil)) }
