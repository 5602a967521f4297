package akg

import (
	"slices"
	"testing"
)

// FuzzIdSet replays random observe/expire scripts against a reference
// multiset (user -> live quanta count). Expiry is FIFO over the observed
// quanta, as the window slide does it. After every step the columns must
// equal the reference: users its sorted keys, cnt its counts, and the
// grew/shrank flags must say whether membership changed.
func FuzzIdSet(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 1, 0})
	f.Add([]byte{0, 5, 9, 1, 9, 4, 7, 0, 2, 9, 30, 1, 1, 0, 1, 31})
	f.Add([]byte{2, 7, 0, 1, 2, 3, 4, 5, 6, 2, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var (
			s    idSet
			ref  = map[uint64]int{}
			ring [][]uint64
		)
		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			if op&1 == 1 && len(ring) > 0 {
				us := ring[0]
				ring = ring[1:]
				want := false
				for _, u := range us {
					if ref[u]--; ref[u] == 0 {
						delete(ref, u)
						want = true
					}
				}
				if got := s.expire(us); got != want {
					t.Fatalf("expire(%v) shrank = %v, want %v", us, got, want)
				}
			} else {
				// One quantum's users: distinct, ascending, drawn from a
				// small range so quanta overlap.
				n := int(op>>1) % 8
				if n > len(script) {
					n = len(script)
				}
				var us []uint64
				for _, b := range script[:n] {
					us = append(us, uint64(b%32))
				}
				script = script[n:]
				slices.Sort(us)
				us = slices.Compact(us)
				want := false
				for _, u := range us {
					if ref[u] == 0 {
						want = true
					}
					ref[u]++
				}
				ring = append(ring, us)
				if got := s.observe(us); got != want {
					t.Fatalf("observe(%v) grew = %v, want %v", us, got, want)
				}
			}
			if len(s.users) != len(ref) || len(s.cnt) != len(s.users) {
				t.Fatalf("columns hold %d users / %d counts, reference %d", len(s.users), len(s.cnt), len(ref))
			}
			for i, u := range s.users {
				if i > 0 && u <= s.users[i-1] {
					t.Fatalf("users not strictly ascending: %v", s.users)
				}
				if int(s.cnt[i]) != ref[u] {
					t.Fatalf("user %d count %d, reference %d", u, s.cnt[i], ref[u])
				}
			}
		}
	})
}
