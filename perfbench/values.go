package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"lite/internal/detrand"
)

// Stored values encode what they are, so every GET can be checked: a
// 24-byte header [namespace][key][version] and a filler that is a pure
// function of all three. A value torn between two versions, or one
// read from another key or tenant namespace, fails the check.
const valueHeader = 24

// fillerWord is the filler at byte offset i of the value whose header
// hashes to base.
func fillerWord(base uint64, i int) uint64 { return detrand.Mix64(base + uint64(i)) }

func makeValue(seed, ns, key, ver uint64, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v[0:], ns)
	binary.LittleEndian.PutUint64(v[8:], key)
	binary.LittleEndian.PutUint64(v[16:], ver)
	base := mixID(seed, ns, key, ver)
	var w [8]byte
	for i := valueHeader; i < size; i += 8 {
		binary.LittleEndian.PutUint64(w[:], fillerWord(base, i))
		copy(v[i:], w[:])
	}
	return v
}

// checkValue verifies that v is a whole value some PUT wrote for
// (ns, key): the header names that key, its version was issued
// (1..maxVer), its length is that version's, and every filler byte
// matches.
func checkValue(v []byte, seed, ns, key, maxVer uint64, sizeOf func(ver uint64) int) error {
	if len(v) < valueHeader {
		return fmt.Errorf("value of %d bytes: %w", len(v), errBadOutput)
	}
	gotNS, gotKey := binary.LittleEndian.Uint64(v[0:]), binary.LittleEndian.Uint64(v[8:])
	ver := binary.LittleEndian.Uint64(v[16:])
	if gotNS != ns || gotKey != key {
		return fmt.Errorf("key %d/%d returned the value of %d/%d: %w", ns, key, gotNS, gotKey, errBadOutput)
	}
	if ver < 1 || ver > maxVer {
		return fmt.Errorf("key %d/%d returned version %d, only 1..%d written: %w", ns, key, ver, maxVer, errBadOutput)
	}
	if want := sizeOf(ver); len(v) != want {
		return fmt.Errorf("key %d/%d version %d has %d bytes, want %d: %w", ns, key, ver, len(v), want, errBadOutput)
	}
	base := mixID(seed, ns, key, ver)
	var w [8]byte
	for i := valueHeader; i < len(v); i += 8 {
		binary.LittleEndian.PutUint64(w[:], fillerWord(base, i))
		if n := min(8, len(v)-i); !bytes.Equal(v[i:i+n], w[:n]) {
			return fmt.Errorf("key %d/%d version %d torn at byte %d: %w", ns, key, ver, i, errBadOutput)
		}
	}
	return nil
}

// zipfCDF is the cumulative distribution of Zipf(s) over n ranks. It
// takes any s > 0 (detrand's sampler clamps s to above 1).
func zipfCDF(s float64, n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// zipfPick maps a uniform 64-bit draw to a rank.
func zipfPick(cdf []float64, u uint64) int {
	f := float64(u>>11) / (1 << 53)
	k := sort.SearchFloat64s(cdf, f)
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return k
}

// homeServer is the kvstore's documented key partitioning (FNV-1a of
// the namespaced key, modulo the server count). Warm-up uses it to
// touch every server before the window opens.
func homeServer(fullKey string, servers int) int {
	h := fnv.New32a()
	h.Write([]byte(fullKey))
	return int(h.Sum32()) % servers
}

// warmKeys returns, for each of n servers, the first of keys that the
// kvstore routes to it.
func warmKeys(prefix string, keys []string, n int) []int {
	out := make([]int, 0, n)
	seen := make([]bool, n)
	for i, k := range keys {
		if s := homeServer(prefix+k, n); !seen[s] {
			seen[s] = true
			out = append(out, i)
		}
	}
	return out
}
