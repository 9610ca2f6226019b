// Package knob centralizes the repository's REPRO_* environment knobs.
//
// Before this package, each knob was read ad hoc (os.Getenv scattered
// across cmd/bench, the sfq kernel switches, the Monte-Carlo short-trial
// tests and the obs overhead guard), which made a typo'd value — say
// REPRO_OBS_GUARD=ture — silently fall back to the default and measure
// the wrong thing. Here every knob is declared once in a
// registry with its legal values; accessors validate strictly and fail
// loudly on anything else, and CheckEnv rejects unknown REPRO_* names
// outright so a misspelled knob *name* is caught too.
//
// The manifest layer (internal/obs) records exactly the registered
// names, so BENCH artifacts and /manifest.json stay in sync with the
// set of knobs that can change what a run measures.
package knob

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// Def declares one environment knob.
type Def struct {
	// Name is the environment variable, always REPRO_*-prefixed.
	Name string
	// Desc says what the knob changes.
	Desc string
	// Allowed lists the legal non-empty values; nil means free-form.
	Allowed []string
}

// boolValues are the legal values of a boolean knob. Unset and "" mean
// false; note that "0" and "false" are *explicit* offs — under the old
// ad-hoc parsing any non-empty string (including "0") switched some
// knobs on.
var boolValues = []string{"0", "1", "false", "true"}

// defs is the registry of every knob the repository reads. Adding a
// knob here is the only step needed for manifest capture and CheckEnv
// acceptance.
var defs = []Def{
	{
		Name:    "REPRO_OBS_GUARD",
		Desc:    "opt into the wall-clock telemetry-overhead guard test",
		Allowed: boolValues,
	},
}

// Defs returns the registered knobs, sorted by name.
func Defs() []Def {
	out := append([]Def(nil), defs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered knob names, sorted. The obs manifest
// captures exactly these from the environment.
func Names() []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// lookup returns the registered definition of name. Asking for an
// unregistered knob is a programming error, not an environment error,
// so it panics.
func lookup(name string) Def {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic(fmt.Sprintf("knob: %s is not a registered knob (add it to internal/knob)", name))
}

// Value returns the knob's raw environment value after validating it
// against the registry. Unset and empty both return "". An illegal
// value returns an error naming the legal set.
func Value(name string) (string, error) {
	d := lookup(name)
	v := os.Getenv(name)
	if v == "" || d.Allowed == nil {
		return v, nil
	}
	for _, a := range d.Allowed {
		if v == a {
			return v, nil
		}
	}
	return "", fmt.Errorf("knob: %s=%q is not a legal value (want one of %s, or unset)",
		name, v, strings.Join(d.Allowed, ", "))
}

// String returns the knob's validated value ("" when unset), panicking
// with a clear message on an illegal value — a typo'd knob must never
// silently select a default.
func String(name string) string {
	v, err := Value(name)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// Bool reads a boolean knob: unset, "", "0" and "false" are false; "1"
// and "true" are true; anything else panics.
func Bool(name string) bool {
	switch String(name) {
	case "1", "true":
		return true
	case "", "0", "false":
		return false
	}
	// Unreachable for knobs registered with boolValues; a non-boolean
	// knob passed here is a programming error.
	panic(fmt.Sprintf("knob: %s is not a boolean knob", name))
}

// CheckEnv validates the whole environment: every REPRO_*-prefixed
// variable must be a registered knob with a legal value. The cmd
// binaries call it at startup so a misspelled knob name fails the run
// instead of silently doing nothing.
func CheckEnv() error {
	for _, kv := range os.Environ() {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 || !strings.HasPrefix(kv, "REPRO_") {
			continue
		}
		name := kv[:eq]
		registered := false
		for _, d := range defs {
			if d.Name == name {
				registered = true
				break
			}
		}
		if !registered {
			return fmt.Errorf("knob: unknown environment knob %s (known: %s)",
				name, strings.Join(Names(), ", "))
		}
		if _, err := Value(name); err != nil {
			return err
		}
	}
	return nil
}
