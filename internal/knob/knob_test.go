package knob

import (
	"strings"
	"testing"
)

// TestKnobTable drives every registered knob through legal, empty and
// illegal values: legal values parse, empty means unset default, and a
// typo'd value fails loudly instead of silently selecting a default —
// the regression the centralization exists to prevent.
func TestKnobTable(t *testing.T) {
	cases := []struct {
		name      string // knob under test
		value     string // environment value (set via t.Setenv)
		wantStr   string // expected String result when !wantPanic
		wantBool  bool   // expected Bool result (boolean knobs only)
		boolKnob  bool
		wantPanic bool
	}{
		{name: "REPRO_MC_SHORT", value: "", boolKnob: true, wantBool: false},
		{name: "REPRO_MC_SHORT", value: "1", wantStr: "1", boolKnob: true, wantBool: true},
		{name: "REPRO_MC_SHORT", value: "true", wantStr: "true", boolKnob: true, wantBool: true},
		{name: "REPRO_MC_SHORT", value: "0", wantStr: "0", boolKnob: true, wantBool: false},
		{name: "REPRO_MC_SHORT", value: "false", wantStr: "false", boolKnob: true, wantBool: false},
		{name: "REPRO_MC_SHORT", value: "yes", boolKnob: true, wantPanic: true},
		{name: "REPRO_OBS_GUARD", value: "1", wantStr: "1", boolKnob: true, wantBool: true},
		{name: "REPRO_OBS_GUARD", value: "on", boolKnob: true, wantPanic: true},
		{name: "REPRO_MC_SHORT", value: "ture", boolKnob: true, wantPanic: true}, // a typo must not select the default
		{name: "REPRO_MC_SHORT", value: "TRUE", boolKnob: true, wantPanic: true},
		{name: "REPRO_OBS_GUARD", value: "", boolKnob: true, wantBool: false},
		{name: "REPRO_OBS_GUARD", value: "0", wantStr: "0", boolKnob: true, wantBool: false},
		{name: "REPRO_OBS_GUARD", value: "true", wantStr: "true", boolKnob: true, wantBool: true},
	}
	for _, tc := range cases {
		t.Run(tc.name+"="+tc.value, func(t *testing.T) {
			t.Setenv(tc.name, tc.value)
			if tc.wantPanic {
				mustPanic(t, func() { String(tc.name) })
				if tc.boolKnob {
					mustPanic(t, func() { Bool(tc.name) })
				}
				if _, err := Value(tc.name); err == nil {
					t.Errorf("Value(%s=%q): want error", tc.name, tc.value)
				}
				return
			}
			if got := String(tc.name); got != tc.wantStr {
				t.Errorf("String(%s=%q) = %q, want %q", tc.name, tc.value, got, tc.wantStr)
			}
			if tc.boolKnob {
				if got := Bool(tc.name); got != tc.wantBool {
					t.Errorf("Bool(%s=%q) = %v, want %v", tc.name, tc.value, got, tc.wantBool)
				}
			}
		})
	}
}

// TestUnregisteredKnobPanics pins that reading a knob missing from the
// registry is treated as a programming error.
func TestUnregisteredKnobPanics(t *testing.T) {
	mustPanic(t, func() { String("REPRO_NO_SUCH_KNOB") })
	mustPanic(t, func() { Bool("REPRO_NO_SUCH_KNOB") })
}

// TestCheckEnv pins the whole-environment scan: registered knobs with
// legal values pass, a typo'd name or value fails.
func TestCheckEnv(t *testing.T) {
	t.Setenv("REPRO_MC_SHORT", "1")
	t.Setenv("REPRO_OBS_GUARD", "true")
	if err := CheckEnv(); err != nil {
		t.Fatalf("CheckEnv with legal knobs: %v", err)
	}

	t.Setenv("REPRO_OBS_GAURD", "1") // misspelled name
	err := CheckEnv()
	if err == nil || !strings.Contains(err.Error(), "REPRO_OBS_GAURD") {
		t.Fatalf("CheckEnv with typo'd name: got %v, want unknown-knob error", err)
	}
	t.Setenv("REPRO_OBS_GAURD", "") // Setenv scopes cleanup; empty value still has the name set
	if err := CheckEnv(); err == nil || !strings.Contains(err.Error(), "REPRO_OBS_GAURD") {
		t.Fatalf("CheckEnv with empty typo'd name: got %v, want unknown-knob error", err)
	}
}

// TestCheckEnvBadValue pins that CheckEnv validates values, not just
// names.
func TestCheckEnvBadValue(t *testing.T) {
	t.Setenv("REPRO_MC_SHORT", "ture")
	if err := CheckEnv(); err == nil || !strings.Contains(err.Error(), "ture") {
		t.Fatalf("CheckEnv with illegal value: got %v, want value error", err)
	}
}

// TestNamesCoverDefs pins that Names is sorted and covers the registry
// (the obs manifest iterates it).
func TestNamesCoverDefs(t *testing.T) {
	names := Names()
	if len(names) != len(defs) {
		t.Fatalf("Names() has %d entries, registry has %d", len(names), len(defs))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, d := range Defs() {
		found := false
		for _, n := range names {
			if n == d.Name {
				found = true
			}
		}
		if !found {
			t.Fatalf("Defs() entry %s missing from Names()", d.Name)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("want panic, got none")
		}
	}()
	f()
}
