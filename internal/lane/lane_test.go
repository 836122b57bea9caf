package lane

import (
	"math/bits"
	"testing"
)

func TestCount(t *testing.T) {
	if got := Count[W1](); got != 64 {
		t.Errorf("Count[W1] = %d", got)
	}
	if got := Count[W4](); got != 256 {
		t.Errorf("Count[W4] = %d", got)
	}
	if got := Count[W8](); got != 512 {
		t.Errorf("Count[W8] = %d", got)
	}
}

// popcount sums the set lanes of a mask.
func popcount[W Word](w W) int {
	n := 0
	for k := 0; k < len(w); k++ {
		n += bits.OnesCount64(w[k])
	}
	return n
}

func testFirstN[W Word](t *testing.T) {
	t.Helper()
	L := Count[W]()
	for _, n := range []int{0, 1, 63, 64, 65, L - 1, L} {
		if n > L {
			continue
		}
		m := FirstN[W](n)
		if got := popcount(m); got != n {
			t.Errorf("FirstN[%d lanes](%d): %d lanes set", L, n, got)
		}
		// The set lanes must be exactly 0..n-1.
		for l := 0; l < L; l++ {
			set := m[l>>6]>>uint(l&63)&1 == 1
			if set != (l < n) {
				t.Errorf("FirstN[%d lanes](%d): lane %d set=%v", L, n, l, set)
			}
		}
	}
	if got := FirstN[W](L + 99); popcount(got) != L {
		t.Errorf("FirstN beyond capacity: %d lanes set, want %d", popcount(got), L)
	}
}

func TestFirstN(t *testing.T) {
	testFirstN[W1](t)
	testFirstN[W4](t)
	testFirstN[W8](t)
}

func testBit[W Word](t *testing.T) {
	t.Helper()
	L := Count[W]()
	for _, l := range []int{0, 1, 63, 64 % L, L - 1} {
		b := Bit[W](l)
		if popcount(b) != 1 {
			t.Fatalf("Bit(%d): %d lanes set", l, popcount(b))
		}
		if b[l>>6]>>uint(l&63)&1 != 1 {
			t.Fatalf("Bit(%d): wrong lane", l)
		}
	}
}

func TestBit(t *testing.T) {
	testBit[W1](t)
	testBit[W4](t)
	testBit[W8](t)
}

func TestMaskOps(t *testing.T) {
	a := FirstN[W4](100)
	b := Bit[W4](200)
	u := Or(a, b)
	if popcount(u) != 101 {
		t.Errorf("Or: %d lanes", popcount(u))
	}
	if u[200>>6]>>(200&63)&1 != 1 {
		t.Error("Or lost lane 200")
	}
	if None(u) {
		t.Error("None on a set mask")
	}
	var zero W4
	if !None(zero) {
		t.Error("None on zero mask")
	}

	dst := Broadcast[W4](0xFFFF)
	mask := Bit[W4](4)
	merged := Merge(dst, mask, zero) // clear lane 4
	if merged[0] != 0xFFFF&^(uint64(1)<<4) {
		t.Errorf("Merge: word0 = %x", merged[0])
	}
	if merged[1] != 0xFFFF {
		t.Errorf("Merge disturbed word1: %x", merged[1])
	}
}

func TestBroadcast(t *testing.T) {
	w := Broadcast[W8](0xDEAD)
	for k := range w {
		if w[k] != 0xDEAD {
			t.Fatalf("word %d = %x", k, w[k])
		}
	}
}
