package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestWriteArtifactRoundTrip pins the on-disk form: indented JSON that
// decodes back to the written value and ends in a newline.
func TestWriteArtifactRoundTrip(t *testing.T) {
	type row struct {
		D  int     `json:"d"`
		Ns float64 `json:"ns"`
	}
	type artifact struct {
		Manifest *Manifest `json:"manifest"`
		Rows     []row     `json:"rows"`
	}
	want := artifact{
		Manifest: &Manifest{GitSHA: "abc", NumCPU: 2, Config: map[string]any{"iters": 3.0}},
		Rows:     []row{{D: 5, Ns: 1.5}, {D: 9, Ns: 2.25}},
	}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := WriteArtifact(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "}\n") {
		t.Fatalf("artifact does not end in a newline: %q", data[len(data)-8:])
	}
	if !strings.Contains(string(data), "\n  \"rows\": [") {
		t.Fatalf("artifact is not indented:\n%s", data)
	}
	var got artifact
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestWriteArtifactErrors pins that failures come back as errors and
// leave nothing behind: a path in a missing directory fails at create,
// and a value JSON cannot encode fails before any file is opened.
func TestWriteArtifactErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "a.json")
	if err := WriteArtifact(missing, map[string]int{"x": 1}); err == nil {
		t.Fatal("WriteArtifact into a missing directory: want error")
	}
	if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Fatalf("missing directory was created: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := WriteArtifact(bad, map[string]any{"f": func() {}}); err == nil {
		t.Fatal("WriteArtifact of an unencodable value: want error")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("unencodable value left a file behind: %v", err)
	}
}
