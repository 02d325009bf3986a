// Package ckpttest damages the handler snapshots inside distsim checkpoints,
// for the tests of the distsim.Snapshotter implementations. The handler
// types are unexported in their packages, so each package's test supplies
// its own checkpoint and count positions, and this package runs the shared
// table: a count the snapshot cannot back must make a resume fail with an
// error, never panic or exhaust memory.
package ckpttest

import (
	"slices"
	"testing"

	"spanner/internal/distsim"
)

// Count is one count word of a handler snapshot.
type Count struct {
	Name string
	// At is the index of the count word in the snapshot.
	At func(snap []int64) int
	// PerEntry is the fewest words one counted entry takes.
	PerEntry int
}

// BadCounts rewrites the checkpoint at path, resealed with
// distsim.WriteWordsFile, once for every count and every bad value (a
// negative count, a huge one, and one entry more than the words after it
// can back) with that count of node's snapshot replaced, and calls resume
// after each rewrite. Every call must return an error and none may panic.
// The checkpoint is restored afterwards.
func BadCounts(t *testing.T, path string, node int, counts []Count, resume func() error) {
	t.Helper()
	words, err := distsim.ReadCheckpointWords(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := distsim.WriteWordsFile(path, words); err != nil {
			t.Error(err)
		}
	}()
	start, end := snapshotBounds(words, node)
	if start < 0 {
		t.Fatalf("checkpoint %s holds no snapshot of node %d", path, node)
	}
	snap := words[start:end]
	for _, c := range counts {
		at := c.At(snap)
		left := int64(len(snap) - at - 1)
		for _, bad := range []struct {
			name string
			n    int64
		}{
			{"negative", -1},
			{"huge", 1 << 50},
			{"one-past-the-end", left/int64(c.PerEntry) + 1},
		} {
			t.Run(c.Name+"/"+bad.name, func(t *testing.T) {
				damaged := slices.Clone(words)
				damaged[start+at] = bad.n
				if err := distsim.WriteWordsFile(path, damaged); err != nil {
					t.Fatal(err)
				}
				switch p, err := call(resume); {
				case p != nil:
					t.Errorf("count %d (was %d) panicked: %v", bad.n, snap[at], p)
				case err == nil:
					t.Errorf("count %d (was %d) resumed without an error", bad.n, snap[at])
				}
			})
		}
	}
}

// call runs resume, returning its panic, if any, instead of raising it.
func call(resume func() error) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, resume()
}

// snapshotBounds returns where node's handler snapshot lies in the words of
// a checkpoint (-1, -1 when it has none), walking the layout that
// distsim's writeCheckpoint emits.
func snapshotBounds(w []int64, node int) (int, int) {
	pos := 17 // magic, version, n, m, round, stall streak, 11 metric cells
	if w[pos] == 1 {
		pos += 3 // fault injector position
	} else {
		pos++
	}
	nDue := w[pos]
	pos++
	for range nDue {
		count := w[pos+1]
		pos += 2
		for range count {
			pos += 2 // to, from
			pos += 1 + int(w[pos])
		}
	}
	pos += 1 + 3*int(w[pos]) // round trace
	for v := 0; v < int(w[2]); v++ {
		pos++ // engine flags
		nOut := w[pos]
		pos++
		for range nOut {
			pos++ // to
			pos += 1 + int(w[pos])
		}
		hasHandler := w[pos] == 1
		pos++
		if !hasHandler {
			continue
		}
		l := int(w[pos])
		pos++
		if v == node {
			return pos, pos + l
		}
		pos += l
	}
	return -1, -1
}
