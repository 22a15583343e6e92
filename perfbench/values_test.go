package main

import (
	"errors"
	"testing"
)

func TestCheckValue(t *testing.T) {
	const seed, ns, key = 9, 2, 77
	size := func(ver uint64) int { return 100 + int(ver) } // odd lengths exercise the last partial word
	v2 := makeValue(seed, ns, key, 2, size(2))
	if err := checkValue(v2, seed, ns, key, 3, size); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}
	v3 := makeValue(seed, ns, key, 3, size(3))
	torn := append([]byte(nil), v3...)
	copy(torn[valueHeader+40:], v2[valueHeader+40:]) // version 3 header, version 2 tail
	for name, c := range map[string]struct {
		v           []byte
		ns, key, mx uint64
	}{
		"torn":          {torn, ns, key, 3},
		"other key":     {v2, ns, key + 1, 3},
		"other tenant":  {v2, ns + 1, key, 3},
		"never written": {v3, ns, key, 2},
		"truncated":     {v3[:len(v3)-1], ns, key, 3},
		"too short":     {v3[:10], ns, key, 3},
	} {
		if err := checkValue(c.v, seed, c.ns, c.key, c.mx, size); !errors.Is(err, errBadOutput) {
			t.Errorf("%s: got %v, want a bad-output error", name, err)
		}
	}
}
