package oracle

import "spanner/internal/graph"

// Distance labeling (Gavoille–Peleg–Pérennes–Raz [26], Thorup–Zwick [38]):
// each vertex gets a self-contained label such that the approximate
// distance between u and v can be computed from label(u) and label(v)
// alone — no shared state. The paper's conclusion lists labeling schemes,
// alongside oracles and routing tables, as the main consumers of spanner
// machinery. A k-level oracle yields labels of expected size O(k·n^{1/k})
// entries answering with stretch 2k−1.

// Label is a self-contained distance label for one vertex.
type Label struct {
	// V is the labeled vertex.
	V int32
	// Witnesses[i] is p_i(V), the nearest A_i vertex, with distance
	// WitnessDist[i]; graph.Unreachable if A_i misses V's component.
	Witnesses   []int32
	WitnessDist []int32
	// Bunch maps w -> δ(V,w) for w ∈ B(V).
	Bunch map[int32]int32
}

// Label extracts the distance label of v. The bunch map is copied so the
// label is self-contained (mutating it cannot corrupt the oracle).
func (o *Oracle) Label(v int32) *Label {
	l := &Label{
		V:           v,
		Witnesses:   make([]int32, o.k),
		WitnessDist: make([]int32, o.k),
		Bunch:       make(map[int32]int32, len(o.bunch.Row(v))),
	}
	for i := 0; i < o.k; i++ {
		l.Witnesses[i] = o.witness[i][v]
		l.WitnessDist[i] = o.distTo[i][v]
	}
	for _, e := range o.bunch.Row(v) {
		l.Bunch[e.Key] = e.Val
	}
	return l
}

// Size returns the number of entries in the label.
func (l *Label) Size() int { return len(l.Witnesses) + len(l.Bunch) }

// QueryLabels estimates δ(a.V, b.V) from the two labels alone, with the
// same 2k−1 stretch guarantee as Oracle.Query.
func QueryLabels(a, b *Label) int32 {
	if a.V == b.V {
		return 0
	}
	u, v := a, b
	w := u.V
	i := 0
	for {
		if dv, ok := v.Bunch[w]; ok {
			return u.WitnessDist[i] + dv
		}
		i++
		if i >= len(u.Witnesses) {
			return graph.Unreachable
		}
		u, v = v, u
		w = u.Witnesses[i]
		if w == graph.Unreachable {
			return graph.Unreachable
		}
	}
}
