package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestInlineFNVMatchesHashFNV pins hashPrunable and the store fingerprint
// to the hash/fnv byte streams they fold inline, so CheckpointID, the
// stored dense hash and everything keyed on them keep their values.
func TestInlineFNVMatchesHashFNV(t *testing.T) {
	rm, m := buildRM(t, 7)
	var word [4]byte

	dense := fnv.New64a()
	for _, p := range m.PrunableParams() {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			dense.Write(word[:])
		}
	}
	if got, want := hashPrunable(m), dense.Sum64(); got != want {
		t.Fatalf("hashPrunable = %#x, hash/fnv %#x", got, want)
	}

	s := rm.store
	fp := fnv.New64a()
	fp.Write(binary.LittleEndian.AppendUint64(nil, s.hash0))
	for l := 1; l < len(s.deltas); l++ {
		for _, d := range s.deltas[l] {
			fp.Write([]byte(d.param))
			fp.Write([]byte{0})
			for _, k := range d.indices {
				binary.LittleEndian.PutUint32(word[:], uint32(k))
				fp.Write(word[:])
			}
		}
	}
	if got, want := s.fingerprint(), fp.Sum64(); got != want {
		t.Fatalf("fingerprint = %#x, hash/fnv %#x", got, want)
	}
	if rm.CheckpointID() != fp.Sum64() {
		t.Fatalf("CheckpointID %#x, hash/fnv fingerprint %#x", rm.CheckpointID(), fp.Sum64())
	}
}
