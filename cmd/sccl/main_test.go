package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	sccl "repro"
)

// TestParetoStatsJSON runs `sccl pareto -json -stats` on ring:4 Broadcast
// and decodes both documents: the frontier on stdout and, after the
// one-line summary on stderr, the {"sweep", "engine"} stats object.
func TestParetoStatsJSON(t *testing.T) {
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	err = cmdPareto([]string{"-topology", "ring:4", "-collective", "Broadcast", "-workers", "1", "-json", "-stats"})
	os.Stdout, os.Stderr = oldOut, oldErr
	if err != nil {
		t.Fatal(err)
	}

	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sccl.DecodeFrontier(bytes.TrimSpace(out))
	if err != nil || len(pts) == 0 {
		t.Fatalf("stdout frontier (%d points): %v\n%s", len(pts), err, out)
	}

	errOut, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(errOut, '{')
	if i < 0 {
		t.Fatalf("stderr carries no stats object:\n%s", errOut)
	}
	var doc struct {
		Sweep  sccl.ParetoStats `json:"sweep"`
		Engine sccl.CacheStats  `json:"engine"`
	}
	dec := json.NewDecoder(bytes.NewReader(errOut[i:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stats object: %v\n%s", err, errOut)
	}
	if doc.Sweep.Probes == 0 || doc.Sweep.Conflicts == 0 {
		t.Errorf("sweep: %d probes, %d conflicts, want both > 0", doc.Sweep.Probes, doc.Sweep.Conflicts)
	}
	if doc.Engine.Misses != 1 || doc.Engine.Conflicts != doc.Sweep.Conflicts {
		t.Errorf("engine: %d misses, %d conflicts, want 1 and the sweep's %d",
			doc.Engine.Misses, doc.Engine.Conflicts, doc.Sweep.Conflicts)
	}
}
