// Package golden pins a paper harness's printed output: a test runs the
// harness in process and compares its stdout, byte for byte, with a
// committed file. There is no update path; changing a golden file is a
// reviewed output change.
package golden

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Check runs every argument list through run, once with -workers 1 and
// once with -workers 2, and compares each run's concatenated stdout with
// testdata/<name>.golden. Both worker counts must match the same file:
// the Monte-Carlo engine's results do not depend on the worker count.
func Check(t *testing.T, name string, run func(args []string, stdout io.Writer) error, cases ...[]string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2"} {
		t.Run("workers="+workers, func(t *testing.T) {
			var got bytes.Buffer
			for _, args := range cases {
				args = append(args[:len(args):len(args)], "-workers", workers)
				if err := run(args, &got); err != nil {
					t.Fatalf("%s %v: %v", name, args, err)
				}
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: stdout differs from %s\n--- got\n%s--- want\n%s", name, path, got.Bytes(), want)
			}
		})
	}
}
