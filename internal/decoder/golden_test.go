package decoder_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"testing"

	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mld"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
)

// TestCorrectionGolden pins every software decoder's output on the whole
// conformance corpus at the distances the benchmark decodes. Each
// (decoder, d, error type) line of testdata/corrections.golden is one
// SHA-256 over the corpus's ordered qubit lists (a uvarint length, then
// each qubit as a uvarint), so a change in any correction, or in the
// order its chains are laid down, fails the test. The file was recorded
// while each decoder still carried its original allocating
// implementation beside the pooled one; it keeps that reference output
// as data. There is no update path: a changed line is a reviewed output
// change.
func TestCorrectionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/corrections.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, d := range []int{3, 5, 9, 13} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			decoders := []decoder.Decoder{greedy.New(), mwpm.New(), unionfind.New()}
			if l.NumData() <= mld.MaxDataQubits {
				ml, err := mld.New(g, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				decoders = append(decoders, ml)
			}
			syns := conformanceSyndromes(t, l, g)
			for _, dec := range decoders {
				h := sha256.New()
				var buf []byte
				for si, syn := range syns {
					c, err := dec.Decode(g, syn)
					if err != nil {
						t.Fatalf("%s d=%d %v syn %d: %v", dec.Name(), d, e, si, err)
					}
					buf = binary.AppendUvarint(buf[:0], uint64(len(c.Qubits)))
					for _, q := range c.Qubits {
						buf = binary.AppendUvarint(buf, uint64(q))
					}
					h.Write(buf)
				}
				fmt.Fprintf(&got, "%s d=%d %v syndromes=%d %x\n", dec.Name(), d, e, len(syns), h.Sum(nil))
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("corrections differ from testdata/corrections.golden\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
