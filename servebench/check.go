package main

import (
	"errors"

	"spanner"
	"spanner/client"
)

var errBatchLen = errors.New("batch reply has the wrong number of entries")

// correct reports whether r answers o rightly. want is o's expected
// distance, or -1 where only the answer's shape is checked. Route hops must
// be edges of g and path hops edges of the spanner sg, from o.u to o.v,
// with Dist their hop count. Any error, flagged approximation or answer to
// another pair is wrong.
func correct(o op, want int32, g, sg *spanner.Graph, r *client.Reply) bool {
	if r.Err != "" || r.Degraded || r.Composed || r.U != o.u || r.V != o.v || r.Type != typeNames[o.typ] {
		return false
	}
	switch o.typ {
	case qDist:
		return r.Dist == want
	case qRoute:
		return walks(g, o, r.Path) && r.Dist == int32(len(r.Path)-1)
	case qPath:
		return walks(sg, o, r.Path) && r.Dist == int32(len(r.Path)-1) && (want < 0 || r.Dist == want)
	}
	return false
}

// walks reports whether path runs from o.u to o.v along edges of g.
func walks(g *spanner.Graph, o op, path []int32) bool {
	if g == nil || len(path) == 0 || path[0] != o.u || path[len(path)-1] != o.v {
		return false
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			return false
		}
	}
	return true
}
