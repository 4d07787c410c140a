package sat

import "testing"

// TestSubsumeOrStrengthen covers the combined one-pass test and the
// variable-signature pre-filter in front of it.
func TestSubsumeOrStrengthen(t *testing.T) {
	lits := func(vs ...int) []Lit {
		out := make([]Lit, len(vs))
		for i, v := range vs {
			out[i] = dimacs(v)
		}
		return out
	}
	cases := []struct {
		c, d []int
		ok   bool
		flip int // 0: plain subsumption
	}{
		{[]int{1, 2}, []int{2, 3, 1}, true, 0},
		{[]int{1, 2}, []int{-1, 2, 3}, true, 1},
		{[]int{1, 2}, []int{1, -2}, true, 2},
		{[]int{1, 2}, []int{-1, -2, 3}, false, 0},
		{[]int{1, 2}, []int{1, 3}, false, 0},
		{[]int{1, 2, 3}, []int{1, 2}, false, 0},
	}
	for _, tc := range cases {
		c, d := lits(tc.c...), lits(tc.d...)
		flip, ok := SubsumeOrStrengthen(c, d)
		if ok != tc.ok {
			t.Fatalf("%v vs %v: ok = %v, want %v", tc.c, tc.d, ok, tc.ok)
		}
		want := NoLit
		if tc.flip != 0 {
			want = dimacs(tc.flip)
		}
		if ok && flip != want {
			t.Fatalf("%v vs %v: flip = %v, want %v", tc.c, tc.d, flip, want)
		}
		// A hit needs vars(c) ⊆ vars(d), so the signature filter must
		// never reject one.
		if ok && ClauseSig(c)&^ClauseSig(d) != 0 {
			t.Fatalf("%v vs %v: signature filter rejects a hit", tc.c, tc.d)
		}
	}
}
