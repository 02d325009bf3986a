package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spanner"
)

// writeServeTrace records a few sampled serve requests through the real
// tracer/JSONL pipeline and returns the trace file path.
func writeServeTrace(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	ob := spanner.NewObserver(spanner.NewJSONLSink(&buf))
	tr := spanner.NewRequestTracer(ob, spanner.RequestTracerConfig{SampleEvery: 1})
	for i := 0; i < 4; i++ {
		rt := tr.Start("dist", int32(i), int32(i+1), "")
		rt.Phase(spanner.ReqPhaseAdmission, 3*time.Microsecond)
		rt.Phase(spanner.ReqPhaseOracle, 9*time.Microsecond)
		tr.Finish(rt)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServePhaseTable(t *testing.T) {
	path := writeServeTrace(t)
	var out bytes.Buffer
	if err := run([]string{path}, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== serve phases ==") {
		t.Fatalf("serve-layer spans not recognized:\n%s", text)
	}
	for _, phase := range []string{"serve.request", "serve.admission", "serve.oracle"} {
		if !strings.Contains(text, phase) {
			t.Fatalf("serve table missing %s:\n%s", phase, text)
		}
	}
	// 4 requests x 9us oracle time -> avg 9.00us in the serve table.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "serve.oracle") {
			f := strings.Fields(line)
			if len(f) < 4 || f[1] != "4" {
				t.Fatalf("serve.oracle row %q, want 4 requests", line)
			}
			if f[3] != "9.00" {
				t.Fatalf("serve.oracle avg us = %q, want 9.00", f[3])
			}
		}
	}
}

func TestMalformedTraceErrors(t *testing.T) {
	cases := map[string]string{
		"not JSON":     "this is not json\n",
		"unknown type": `{"type":"bogus","name":"x","seq":1}` + "\n",
		"missing name": `{"type":"point","seq":1}` + "\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.jsonl")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := run([]string{path}, false, &out)
			if err == nil {
				t.Fatalf("malformed trace accepted:\n%s", out.String())
			}
			if !strings.Contains(err.Error(), "line 1") {
				t.Fatalf("error does not name the line: %v", err)
			}
		})
	}
	// Empty trace is also an error, not a silent empty table.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, false, new(bytes.Buffer)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBuildPhasesStillSummarized(t *testing.T) {
	var buf bytes.Buffer
	ob := spanner.NewObserver(spanner.NewJSONLSink(&buf))
	sp := ob.StartSpan("skeleton.build")
	sp.Child("skeleton.level").End()
	sp.End()
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "build.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skeleton.build") {
		t.Fatalf("build phases dropped:\n%s", out.String())
	}
	if strings.Contains(out.String(), "== serve phases ==") {
		t.Fatalf("serve table rendered for a build-only trace:\n%s", out.String())
	}
}
