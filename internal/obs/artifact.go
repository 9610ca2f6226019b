package obs

import (
	"encoding/json"
	"os"
)

// WriteArtifact writes v to path as indented JSON with a trailing
// newline. It is the one writer behind every BENCH artifact the
// harnesses produce. v is encoded before path is opened, so an
// encoding error leaves the file untouched; create, write and close
// errors are returned.
func WriteArtifact(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
