package match

import (
	"testing"
)

// decodeWeights turns fuzz bytes into a small symmetric non-negative
// weight matrix: the first byte picks the vertex count (2..8), the rest
// fill the upper triangle (mod a small range so ties and zeros — absent
// edges — are common).
func decodeWeights(data []byte) (n int, w [][]int64) {
	if len(data) == 0 {
		return 0, nil
	}
	n = 2 + int(data[0]%7)
	data = data[1:]
	w = make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	k := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			var b byte
			if k < len(data) {
				b = data[k]
			}
			k++
			w[u][v] = int64(b % 17)
			w[v][u] = w[u][v]
		}
	}
	return n, w
}

// FuzzBlossom feeds random weight matrices to the blossom solver and
// checks the structural invariants every matching must satisfy:
// symmetry (mate[mate[u]] == u), edge validity (matched pairs have
// positive weight), total-weight consistency, and 2-opt local
// optimality — no pair swap or single unmatched edge improves the
// matching, which would contradict maximality. The same matrix, with
// boundary weights from the bytes after it, then goes to Boundary:
// Greedy must equal the sort-based oracle pair for pair, and Exact must
// reach the boundary-twin construction's optimum.
func FuzzBlossom(f *testing.F) {
	f.Add([]byte{2, 5})
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{7, 0, 0, 0, 9, 9, 9, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, w := decodeWeights(data)
		if n == 0 {
			return
		}
		mate, total := NewMatcher().MaxWeight(n, flat(w))
		if len(mate) != n {
			t.Fatalf("mate has %d entries, want %d", len(mate), n)
		}
		var sum int64
		for u, v := range mate {
			if v == -1 {
				continue
			}
			if v < 0 || v >= n || v == u {
				t.Fatalf("mate[%d] = %d out of range", u, v)
			}
			if mate[v] != u {
				t.Fatalf("asymmetric: mate[%d]=%d but mate[%d]=%d", u, v, v, mate[v])
			}
			if w[u][v] <= 0 {
				t.Fatalf("matched absent edge (%d,%d) of weight %d", u, v, w[u][v])
			}
			if v > u {
				sum += w[u][v]
			}
		}
		if sum != total {
			t.Fatalf("reported total %d, matched edges sum to %d", total, sum)
		}
		// Local optimality. Unmatched edge between two free vertices:
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if mate[u] == -1 && mate[v] == -1 && w[u][v] > 0 {
					t.Fatalf("free vertices %d,%d joined by weight-%d edge", u, v, w[u][v])
				}
			}
		}
		// 2-opt: re-pairing two matched edges (a,b),(c,d) as (a,c),(b,d)
		// or (a,d),(b,c) must not increase the total weight.
		for a := 0; a < n; a++ {
			b := mate[a]
			if b < a {
				continue
			}
			for c := a + 1; c < n; c++ {
				d := mate[c]
				if d < c || c == b {
					continue
				}
				cur := w[a][b] + w[c][d]
				if w[a][c]+w[b][d] > cur || w[a][d]+w[b][c] > cur {
					t.Fatalf("swap of (%d,%d),(%d,%d) improves the matching", a, b, c, d)
				}
			}
		}
		// A reused Matcher must reproduce the one-shot result exactly.
		var m Matcher
		flat := make([]int64, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				flat[u*n+v] = w[u][v]
			}
		}
		for round := 0; round < 2; round++ {
			mate2, total2 := m.MaxWeight(n, flat)
			if total2 != total {
				t.Fatalf("round %d: reused matcher total %d, want %d", round, total2, total)
			}
			for u := range mate {
				if mate2[u] != mate[u] {
					t.Fatalf("round %d: reused matcher mate[%d]=%d, want %d", round, u, mate2[u], mate[u])
				}
			}
		}
		in := boundaryInstance{w: w, b: make([]int64, n)}
		rest := data[min(len(data), 1+n*(n-1)/2):]
		for i := range in.b {
			if i < len(rest) {
				in.b[i] = int64(rest[i] % 17)
			}
		}
		checkBoundary(t, new(Boundary), in)
	})
}
