package decoder_test

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
)

// FuzzDecode feeds arbitrary syndrome bit patterns — not just ones
// reachable from i.i.d. errors — to every matching decoder. The planar
// code's boundaries make every syndrome decodable, so each decoder must
// return without error, its correction must clear the syndrome
// (Validate), and a scratch reused across every input must return
// exactly the qubit sequence a fresh scratch returns.
//
// data[0] picks the graph: bits 0-1 the distance (3, 5, 9 or 13, the
// sizes the benchmark decodes), bit 2 the error type.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff, 0x0f})
	f.Add([]byte{0, 0xaa})
	f.Add([]byte{1, 0x01, 0x80, 0x42, 0x18})
	f.Add([]byte{2, 0x11, 0x00, 0xc3, 0x28, 0x05, 0x90, 0x44, 0x02, 0x81, 0x30})
	f.Add([]byte{7, 0x01, 0x20, 0x00, 0x48, 0x82, 0x00, 0x11, 0x04, 0x00, 0x60,
		0x02, 0x00, 0x90, 0x08, 0x41, 0x00, 0x14, 0x80, 0x03, 0x00})

	distances := [4]int{3, 5, 9, 13}
	graphs := map[int][2]*lattice.Graph{}
	for _, d := range distances {
		l := lattice.MustNew(d)
		graphs[d] = [2]*lattice.Graph{l.MatchingGraph(lattice.ZErrors), l.MatchingGraph(lattice.XErrors)}
	}
	decoders := []decodepool.IntoDecoder{greedy.New(), mwpm.New(), unionfind.New()}
	scratch := decodepool.NewScratch()

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := distances[data[0]&3]
		g := graphs[d][(data[0]>>2)&1]
		data = data[1:]
		syn := make([]bool, g.NumChecks())
		for i := range syn {
			if i/8 < len(data) && data[i/8]&(1<<uint(i%8)) != 0 {
				syn[i] = true
			}
		}
		for _, dec := range decoders {
			fresh, err := dec.DecodeInto(g, syn, decodepool.NewScratch())
			if err != nil {
				t.Fatalf("%s d=%d: %v", dec.Name(), d, err)
			}
			if err := decoder.Validate(g, syn, fresh); err != nil {
				t.Fatalf("%s d=%d syn=%v: %v", dec.Name(), d, syn, err)
			}
			got, err := dec.DecodeInto(g, syn, scratch)
			if err != nil {
				t.Fatalf("%s d=%d: reused scratch: %v", dec.Name(), d, err)
			}
			if !sameQubits(got.Qubits, fresh.Qubits) {
				t.Fatalf("%s d=%d syn=%v: reused scratch %v != fresh scratch %v", dec.Name(), d, syn, got.Qubits, fresh.Qubits)
			}
		}
	})
}
