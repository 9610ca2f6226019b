package sfq

import (
	"strings"
	"testing"

	"repro/internal/lattice"
)

func TestRenderGlyphs(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	// Idle mesh: ring with boundary modules on the left/right even rows,
	// inert corners, idle interior.
	out := mesh.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("render has %d lines, want 7", len(lines))
	}
	if lines[0] != "       " {
		t.Errorf("top ring not inert: %q", lines[0])
	}
	if lines[1] != "=·····=" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != " ····· " {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestRenderDuringDecode(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	syn := synWithHot(g, lattice.Site{Row: 2, Col: 1})
	var frames []string
	mesh.SetTracer(func(cycle int, frame string) {
		frames = append(frames, frame)
	})
	if _, _, err := mesh.DecodeWithStats(syn); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("tracer saw no frames")
	}
	joined := strings.Join(frames, "")
	for _, glyph := range []string{"H", "*", "r", "G", "P", "#"} {
		if !strings.Contains(joined, glyph) {
			t.Errorf("glyph %q never rendered during a boundary pairing", glyph)
		}
	}
	// A finished decode leaves its correction chain on display.
	if out := mesh.Render(); !strings.Contains(out, "#") || strings.ContainsAny(out, "HPGr*") {
		t.Errorf("final render shows no settled correction chain:\n%s", out)
	}
	// Tracer can be removed.
	mesh.SetTracer(nil)
	frames = frames[:0]
	if _, _, err := mesh.DecodeWithStats(syn); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 0 {
		t.Error("tracer fired after removal")
	}
}
