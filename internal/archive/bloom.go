package archive

import (
	"encoding/base64"
	"hash/fnv"
	"math"
)

// defaultBloomBits / defaultBloomHashes size the per-segment keyword
// Bloom filter when no explicit sizing is configured: 8192 bits with 4
// hashes keeps the false-positive rate under ~2% for the few hundred
// distinct keywords a segment accumulates, at 1 KiB of sidecar per
// segment. Sidecars written before the filter became configurable carry
// no hash count, so 4 is also the decode default — changing it would
// turn old filters into false-negative machines.
const (
	defaultBloomBits   = 8192
	defaultBloomHashes = 4
	// maxBloomHashes caps the hash count: sizing never asks for more,
	// and a sidecar claiming more is not trusted (every probe costs k
	// hashes).
	maxBloomHashes = 16
)

// blockBloomBitsPerKey / blockBloomHashes size the per-block keyword
// filters of v2 zone maps. Blocks are small and their filters are
// sized from the block's actual distinct-keyword count, so 8 bits/key
// (~2% false positives at 4 hashes) costs a few dozen bytes per block.
const (
	blockBloomBitsPerKey = 8
	blockBloomHashes     = 4
)

// bloomParams is the filter sizing one Log stamps onto new filters.
type bloomParams struct {
	bits   int
	hashes int
}

// blockBloomParams sizes one block's zone-map keyword filter from its
// (approximate) distinct-string count.
func blockBloomParams(keys int) bloomParams {
	bits := blockBloomBitsPerKey * keys
	if bits < 256 {
		bits = 256
	}
	if bits > 1<<20 {
		bits = 1 << 20
	}
	bits = (bits + 63) &^ 63
	return bloomParams{bits: bits, hashes: blockBloomHashes}
}

// bloomSizing derives the per-segment filter size from a bits-per-key
// budget and the segment's rotation bound. bitsPerKey ≤ 0 selects the
// legacy fixed 8192-bit / 4-hash shape. The hash count follows the
// textbook optimum k = ln2 · bits/key, clamped to a sane range.
func bloomSizing(bitsPerKey, segmentEvents int) bloomParams {
	if bitsPerKey <= 0 {
		return bloomParams{bits: defaultBloomBits, hashes: defaultBloomHashes}
	}
	bits := bitsPerKey * segmentEvents
	if bits < 512 {
		bits = 512
	}
	if bits > 1<<21 {
		bits = 1 << 21
	}
	bits = (bits + 63) &^ 63 // whole words
	k := int(math.Round(math.Ln2 * float64(bitsPerKey)))
	if k < 1 {
		k = 1
	}
	return bloomParams{bits: bits, hashes: min(k, maxBloomHashes)}
}

// bloom is a Bloom filter over keyword strings, using double hashing
// (h1 + i·h2) over one 64-bit FNV-1a pass. The bit-array length (any
// multiple of 64 bits) is the modulus, so filters of different
// configured sizes coexist in one archive; the hash count rides along
// because it must match between add and probe.
type bloom struct {
	bits []byte
	k    int
}

func newBloom() bloom {
	return newBloomSized(bloomParams{bits: defaultBloomBits, hashes: defaultBloomHashes})
}

func newBloomSized(p bloomParams) bloom {
	return bloom{bits: make([]byte, p.bits/8), k: p.hashes}
}

func (b bloom) empty() bool { return len(b.bits) == 0 }

// clone deep-copies the filter (for point-in-time views of the still-
// mutating active filter).
func (b bloom) clone() bloom {
	if b.empty() {
		return bloom{}
	}
	return bloom{bits: append([]byte(nil), b.bits...), k: b.k}
}

func bloomHash(s string) (h1, h2 uint32) {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
	v := h.Sum64()
	h1 = uint32(v)
	h2 = uint32(v>>32) | 1 // odd, so the probe sequence cycles all bits
	return
}

func (b bloom) add(s string) {
	n := uint32(len(b.bits) * 8)
	if n == 0 {
		return
	}
	h1, h2 := bloomHash(s)
	for i := uint32(0); i < uint32(b.k); i++ {
		bit := (h1 + i*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether s could have been added (false positives
// possible, false negatives not). An empty filter admits everything.
func (b bloom) mayContain(s string) bool {
	n := uint32(len(b.bits) * 8)
	if n == 0 || n%64 != 0 {
		// Unknown filter shape (corrupt or future sidecar): never skip.
		return true
	}
	h1, h2 := bloomHash(s)
	for i := uint32(0); i < uint32(b.k); i++ {
		bit := (h1 + i*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

func (b bloom) encode() string { return base64.StdEncoding.EncodeToString(b.bits) }

// decodeBloom rebuilds a filter from its sidecar encoding. k ≤ 0
// selects the legacy hash count (sidecars written before the filter
// became configurable carry none); an undecodable filter or k above
// maxBloomHashes yields the empty filter, which admits everything.
func decodeBloom(s string, k int) bloom {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil || k > maxBloomHashes {
		return bloom{}
	}
	if k <= 0 {
		k = defaultBloomHashes
	}
	return bloom{bits: raw, k: k}
}
