package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"spanner/internal/ckpttest"
	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/reliable"
)

func sortedKeys(s *graph.EdgeSet) []int64 {
	keys := s.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sameScheduleResult(t *testing.T, label string, want, got ScheduleResult) {
	t.Helper()
	if !reflect.DeepEqual(sortedKeys(want.Spanner), sortedKeys(got.Spanner)) {
		t.Errorf("%s: spanner diverged (%d vs %d edges)", label, got.Spanner.Len(), want.Spanner.Len())
	}
	if got.Metrics != want.Metrics {
		t.Errorf("%s: metrics = %+v, want %+v", label, got.Metrics, want.Metrics)
	}
	if !reflect.DeepEqual(got.PerCall, want.PerCall) {
		t.Errorf("%s: per-call profiles diverged", label)
	}
	if !reflect.DeepEqual(got.Abandoned, want.Abandoned) {
		t.Errorf("%s: abandoned links = %v, want %v", label, got.Abandoned, want.Abandoned)
	}
}

// copyPrefixState replicates a kill: a directory holding the manifests for
// calls 0..idx and, optionally, the first nCkpts engine checkpoints of call
// idx — exactly what survives on disk when the process dies inside call idx.
func copyPrefixState(t *testing.T, src string, idx, nCkpts int) string {
	t.Helper()
	dst := t.TempDir()
	for i := 0; i <= idx; i++ {
		raw, err := os.ReadFile(filepath.Join(src, manifestName(i)))
		if err != nil {
			t.Fatalf("manifest %d: %v", i, err)
		}
		if err := os.WriteFile(filepath.Join(dst, manifestName(i)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if nCkpts > 0 {
		ckpts, err := filepath.Glob(filepath.Join(callDir(src, idx), "ckpt-*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(ckpts)
		if nCkpts > len(ckpts) {
			nCkpts = len(ckpts)
		}
		if err := os.MkdirAll(callDir(dst, idx), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range ckpts[:nCkpts] {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(callDir(dst, idx), filepath.Base(p)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// TestPipelineResumeEveryCallBoundary kills the Expand pipeline at every
// call boundary (and mid-call at engine checkpoints) and resumes it: the
// spanner, the aggregate metrics and the per-call profiles must be
// byte-identical to the uninterrupted run. Runs plain, under faults, and
// under faults with the reliable transport.
func TestPipelineResumeEveryCallBoundary(t *testing.T) {
	g := graph.ConnectedGnp(80, 0.06, rand.New(rand.NewSource(4)))
	schedule := Schedule(g.N(), Options{})

	cases := []struct {
		name string
		plan func() *faults.Plan
		pol  *reliable.Policy
	}{
		{"plain", func() *faults.Plan { return nil }, nil},
		{"faulty", func() *faults.Plan {
			return &faults.Plan{Seed: 7, Drop: 0.01, Delay: 0.05, DelayRounds: 2}
		}, nil},
		{"reliable", func() *faults.Plan {
			return &faults.Plan{Seed: 7, Drop: 0.05, Delay: 0.05, DelayRounds: 2}
		}, &reliable.Policy{Seed: 17}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkOpts := func() ScheduleOpts {
				return ScheduleOpts{Seed: 5, MsgCap: 64, Faults: tc.plan(), Reliable: tc.pol}
			}
			want, err := RunExpandScheduleOpts(g, schedule, mkOpts())
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			full := t.TempDir()
			opts := mkOpts()
			opts.CheckpointDir, opts.CheckpointEvery = full, 8
			got, err := RunExpandScheduleOpts(g, schedule, opts)
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			sameScheduleResult(t, "checkpointing enabled", want, got)

			// The pipeline stops once every vertex is dead, so manifests may
			// cover only a prefix of the schedule — kill at each one written.
			manifests, err := filepath.Glob(filepath.Join(full, "manifest-*.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if len(manifests) < 2 {
				t.Fatalf("expected several manifests, got %d", len(manifests))
			}
			for idx := 0; idx < len(manifests); idx++ {
				// Kill at the call boundary: manifest idx written, call not run.
				ropts := mkOpts()
				ropts.CheckpointDir = copyPrefixState(t, full, idx, 0)
				ropts.CheckpointEvery, ropts.Resume = 8, true
				res, err := RunExpandScheduleOpts(g, schedule, ropts)
				if err != nil {
					t.Fatalf("resume at call %d: %v", idx, err)
				}
				sameScheduleResult(t, fmt.Sprintf("resume at call %d", idx), want, res)

				// Kill mid-call: one engine checkpoint of call idx survives.
				ropts = mkOpts()
				ropts.CheckpointDir = copyPrefixState(t, full, idx, 1)
				ropts.CheckpointEvery, ropts.Resume = 8, true
				res, err = RunExpandScheduleOpts(g, schedule, ropts)
				if err != nil {
					t.Fatalf("mid-call resume in call %d: %v", idx, err)
				}
				sameScheduleResult(t, fmt.Sprintf("mid-call resume in call %d", idx), want, res)
			}
		})
	}
}

// TestPipelineResumeGuards covers the refusal paths of pipeline resumption.
func TestPipelineResumeGuards(t *testing.T) {
	g := graph.ConnectedGnp(40, 0.1, rand.New(rand.NewSource(1)))
	schedule := Schedule(g.N(), Options{})
	if _, err := RunExpandScheduleOpts(g, schedule, ScheduleOpts{Seed: 1, Resume: true}); err == nil {
		t.Error("Resume without a checkpoint dir should fail")
	}
	if _, err := RunExpandScheduleOpts(g, schedule, ScheduleOpts{
		Seed: 1, Resume: true, CheckpointDir: t.TempDir(),
	}); err == nil {
		t.Error("Resume from an empty dir should fail")
	}

	dir := t.TempDir()
	if _, err := RunExpandScheduleOpts(g, schedule, ScheduleOpts{
		Seed: 1, MsgCap: 64, CheckpointDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	other := graph.ConnectedGnp(41, 0.1, rand.New(rand.NewSource(2)))
	if _, err := RunExpandScheduleOpts(other, Schedule(other.N(), Options{}), ScheduleOpts{
		Seed: 1, MsgCap: 64, CheckpointDir: dir, Resume: true,
	}); err == nil {
		t.Error("Resume against a different graph should fail")
	}
	if _, err := RunExpandScheduleOpts(g, schedule, ScheduleOpts{
		Seed: 2, MsgCap: 64, CheckpointDir: dir, Resume: true,
	}); err == nil {
		t.Error("Resume with a different seed should fail")
	}
}

// TestResumeRejectsBadSnapshotCounts damages counts of a skeleton node's
// snapshot, bare and wrapped in the reliable transport, inside an engine
// checkpoint of the pipeline: resuming from it must fail with an error.
func TestResumeRejectsBadSnapshotCounts(t *testing.T) {
	g := graph.ConnectedGnp(80, 0.06, rand.New(rand.NewSource(4)))
	schedule := Schedule(g.N(), Options{})
	for _, tc := range []struct {
		name   string
		pol    *reliable.Policy
		counts []ckpttest.Count
	}{
		{"skeleton", nil, []ckpttest.Count{
			{Name: "children1", At: func([]int64) int { return 7 }, PerEntry: 1},
			{Name: "cands", At: func(s []int64) int {
				children2 := 8 + int(s[7])
				return children2 + 1 + int(s[children2]) + 3
			}, PerEntry: 4},
		}},
		{"reliable", &reliable.Policy{Seed: 17}, []ckpttest.Count{
			{Name: "links", At: func([]int64) int { return 17 }, PerEntry: 6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, err := RunExpandScheduleOpts(g, schedule, ScheduleOpts{Seed: 5, MsgCap: 64,
				Reliable: tc.pol, CheckpointDir: dir, CheckpointEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			path, err := distsim.LatestCheckpoint(callDir(dir, 0))
			if err != nil || path == "" {
				t.Fatalf("no engine checkpoint of call 0: %v", err)
			}
			ckpttest.BadCounts(t, path, 0, tc.counts, func() error {
				nodes := make([]skelNode, g.N())
				handlers := make([]distsim.Handler, g.N())
				for v := range handlers {
					handlers[v] = &nodes[v]
				}
				if tc.pol != nil {
					handlers, _ = reliable.Wrap(handlers, *tc.pol)
				}
				_, err := distsim.ResumeFrom(g, handlers, distsim.Config{}, path)
				return err
			})
		})
	}
}
