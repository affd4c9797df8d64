package coherence_test

import (
	"math/rand"
	"testing"

	"cachier/internal/coherence"
	"cachier/internal/dir1sw"
	"cachier/internal/dirn"
)

// Each fuzz operation is two bytes. The first: bits 0–2 pick the call,
// bits 3–4 the node. The second: bits 0–2 the block, bits 3–7 how far the
// clock moves on afterwards, in fuzzTick cycles.
const (
	opRead = iota
	opWrite
	opCheckOutS
	opCheckOutX
	opCheckIn
	opPrefetchS
	opPrefetchX
	opFlushNode

	fuzzNodes = 4
	fuzzTick  = 8
	fuzzOps   = 512 // operations read from one input at most
)

// stormBytes encodes the operation sequence randomStorm and
// TestDirnRandomStorm draw from seed, for the fuzz corpus.
func stormBytes(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for i := 0; i < 60; i++ {
		node := rng.Intn(4)
		block := rng.Intn(16)
		var op int
		switch rng.Intn(8) {
		case 0, 1:
			op = opRead
		case 2, 3:
			op = opWrite
		case 4:
			op = opCheckOutX
		case 5:
			op = opCheckOutS
		case 6:
			op = opCheckIn
		case 7:
			op = opPrefetchS
			if rng.Intn(2) == 0 {
				op = opPrefetchX
			}
		}
		b = append(b, byte(op|node<<3), byte(block&7|rng.Intn(200)/fuzzTick<<3))
	}
	return b
}

// FuzzCoherenceOps drives the whole access surface from arbitrary bytes on
// 4 nodes over 8 blocks of a 2-set, 2-way cache, under Dir1SW, Dir2NB and
// Dir2B with the probe on. Whatever the sequence, no invariant breaks, and
// every read and write is exactly one of a hit, a read miss, a write miss
// or a write fault.
func FuzzCoherenceOps(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(stormBytes(seed))
	}
	protos := []coherence.Protocol{dir1sw.Protocol(), dirn.NB(2), dirn.B(2)}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2*fuzzOps {
			ops = ops[:2*fuzzOps]
		}
		for _, proto := range protos {
			s, err := coherence.New(coherence.Config{
				Nodes: fuzzNodes, CacheSize: 128, Assoc: 2, BlockSize: 32,
				Costs: coherence.DefaultCosts(), Probe: true,
			}, proto)
			if err != nil {
				t.Fatal(err)
			}
			now := uint64(0)
			for i := 0; i+1 < len(ops); i += 2 {
				node := int(ops[i]>>3) % fuzzNodes
				addr := uint64(ops[i+1]&7) * 32
				switch ops[i] & 7 {
				case opRead:
					s.Read(node, addr, now)
				case opWrite:
					s.Write(node, addr, now)
				case opCheckOutS:
					s.CheckOutS(node, addr, now)
				case opCheckOutX:
					s.CheckOutX(node, addr, now)
				case opCheckIn:
					s.CheckIn(node, addr)
				case opPrefetchS:
					s.Prefetch(node, addr, now, false)
				case opPrefetchX:
					s.Prefetch(node, addr, now, true)
				case opFlushNode:
					s.FlushNode(node)
				}
				now += uint64(ops[i+1]>>3) * fuzzTick
			}
			if err := s.ProbeError(); err != nil {
				t.Fatalf("%s: %v", proto.Name(), err)
			}
			if err := s.CheckCoherence(); err != nil {
				t.Fatalf("%s: %v", proto.Name(), err)
			}
			st := s.Stats
			if got, want := st.Hits+st.ReadMisses+st.WriteMisses+st.WriteFaults, st.Reads+st.Writes; got != want {
				t.Fatalf("%s: %d hits and misses for %d reads and writes (%+v)", proto.Name(), got, want, st)
			}
		}
	})
}
