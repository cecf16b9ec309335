package main

import (
	"sort"

	"repro/internal/points"
)

// canonical returns a copy of s sorted lexicographically, so two skylines
// compare as multisets.
func canonical(s points.Set) points.Set {
	out := append(points.Set(nil), s...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func less(a, b points.Point) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// sameSkyline reports whether got equals the canonical reference ref as a
// multiset of points, coordinate for coordinate.
func sameSkyline(got, ref points.Set) bool {
	if len(got) != len(ref) {
		return false
	}
	g := canonical(got)
	for i := range g {
		if len(g[i]) != len(ref[i]) {
			return false
		}
		for k := range g[i] {
			if g[i][k] != ref[i][k] {
				return false
			}
		}
	}
	return true
}

// sameNames reports whether two name lists hold the same names, in any
// order.
func sameNames(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}
