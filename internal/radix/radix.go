// Package radix is the one ordering kernel of a round's plan → simulate
// path: a stable LSD radix sort over the IEEE-754 bit patterns of float64
// keys. Algorithm 2's selection order, Algorithm 3's line 1 and the TDMA
// uplink's first-come-first-served order all sort through it.
package radix

import (
	"math"
	"slices"
)

// Key maps x to a uint64 whose unsigned order is x's numeric order: a
// non-negative x gets its sign bit set, a negative x is complemented, and
// −0 folds into +0 so the two tie. Callers never pass NaN.
func Key(x float64) uint64 {
	b := math.Float64bits(x + 0) // adding +0 turns −0 into +0
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Sort orders a by key, ascending, then each run of equal key bits by tie
// (a nil tie keeps input order). It runs one stable pass per 8-bit digit,
// least significant first, skipping every digit all keys share (and every
// pass if the keys already ascend), and ping-pongs through buf, which must
// hold len(a) elements. key is called a bounded number of times per
// element, so it may read an existing column.
func Sort[E any](a, buf []E, key func(E) uint64, tie func(x, y E) int) {
	n, i := len(a), 1
	for i < n && key(a[i-1]) <= key(a[i]) {
		i++
	}
	if i < n { // not already in order
		var count [8][256]int
		for _, e := range a {
			k := key(e)
			for d := range count {
				count[d][byte(k>>(8*d))]++
			}
		}
		src, dst := a, buf[:n]
		for d := range count {
			c := &count[d]
			if c[byte(key(src[0])>>(8*d))] == n {
				continue // every key shares this digit
			}
			sum := 0
			for i, v := range c {
				c[i], sum = sum, sum+v
			}
			for _, e := range src {
				b := byte(key(e) >> (8 * d))
				dst[c[b]] = e
				c[b]++
			}
			src, dst = dst, src
		}
		copy(a, src) // a self-copy when the passes ended in a
	}
	for lo := 0; tie != nil && lo < n; {
		k, hi := key(a[lo]), lo+1
		for hi < n && key(a[hi]) == k {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(a[lo:hi], tie)
		}
		lo = hi
	}
}
