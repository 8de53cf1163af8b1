package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/nn"
)

// ErrStoreCorrupt is the sentinel wrapped by every integrity failure of the
// recovery store. A corrupted store is unrecoverable by design — the
// displaced dense values exist nowhere else at runtime — so detection is
// the whole contract: a revert that would write corrupted values refuses to
// touch the weights and surfaces this error instead, and the health
// watchdog quarantines the instance permanently. See
// docs/ARCHITECTURE.md ("Unrecoverable by design").
var ErrStoreCorrupt = errors.New("recovery store corrupt")

// CheckpointStore is the shared, immutable half of a reversible model: the
// sealed dense weight snapshot, the level library, every level's deltas
// (displaced values + indices), and a per-level integrity checksum. One
// store backs any number of ReversibleModel views — a fleet cloned from one
// checkpoint holds the O(model) state once and O(active deltas) per
// instance.
//
// The store is logically immutable after Build: views only read it. The
// refcount (Acquire/Release) tracks attached views so tests can assert
// leak-freedom and RefreshStore can insist on sole ownership before
// rewriting the snapshot. Refcounting is synchronized; everything else
// relies on immutability for concurrent-read safety.
type CheckpointStore struct {
	levels []*Level
	deltas [][]delta    // deltas[l] moves level l-1 → l, for l ≥ 1
	dense  []denseParam // sealed dense snapshot, in model parameter order
	hash0  uint64       // FNV-64a of dense prunable weights at seal time
	ckpt   uint64       // hash0 folded with every level's delta layout
	lossy  bool         // half-precision displaced values
	sums   []uint64     // sums[l] is the checksum over deltas[l]; sums[0] unused

	mu   sync.Mutex
	refs int
}

// denseParam is one sealed parameter buffer of the snapshot. Prunable
// buffers are aliased copy-on-write by views; the rest are copied at view
// construction (biases are tiny).
type denseParam struct {
	name     string
	data     []float32
	prunable bool
}

// seal computes the per-level checksums over the captured deltas. Called
// once at Build/RefreshStore time, after which the store is immutable.
func (s *CheckpointStore) seal() {
	s.sums = make([]uint64, len(s.deltas))
	for l := 1; l < len(s.deltas); l++ {
		s.sums[l] = levelChecksum(s.deltas[l])
	}
}

// FNV-64a parameters (hash/fnv's, inlined so the restore hot path never
// pays an interface call per word).
const (
	fnvOffset64 uint64 = 0xcbf29ce484222325
	fnvPrime64  uint64 = 0x100000001b3
)

// fnvWord folds the four little-endian bytes of w into the FNV-64a state
// h, exactly as hash/fnv's Write of those bytes would.
func fnvWord(h uint64, w uint32) uint64 {
	h = (h ^ uint64(byte(w))) * fnvPrime64
	h = (h ^ uint64(byte(w>>8))) * fnvPrime64
	h = (h ^ uint64(byte(w>>16))) * fnvPrime64
	return (h ^ uint64(byte(w>>24))) * fnvPrime64
}

// levelChecksum folds one level's deltas — parameter names, pruned indices,
// and the bit patterns of the stored displaced values — into a 64-bit sum.
// It covers the stored representation (float32 or bfloat16), so a single
// flipped bit anywhere in the level's recovery data changes the sum.
//
// The fold is an FNV-64a variant applied per 32-bit word across four
// interleaved lanes that are cross-folded at the end. Plain FNV is a
// serial xor-multiply chain, so a straightforward implementation runs at
// multiply *latency*; four independent lanes run at multiply *throughput*.
// That matters because the revert path verifies every level it crosses
// before writing a single weight (see ReversibleModel.ApplyLevel), and the
// paper's headline claim — reversible restore ≪ dense checkpoint reload —
// must survive the integrity check riding on it.
func levelChecksum(ds []delta) uint64 {
	h0 := fnvOffset64
	h1 := fnvOffset64 ^ 0x9e3779b97f4a7c15
	h2 := fnvOffset64 ^ 0xbf58476d1ce4e5b9
	h3 := fnvOffset64 ^ 0x94d049bb133111eb
	for di := range ds {
		d := &ds[di]
		// Names are a few bytes; fold them (with a length separator) through
		// lane 0 — latency is irrelevant here.
		h0 = (h0 ^ uint64(len(d.param))) * fnvPrime64
		for i := 0; i < len(d.param); i++ {
			h0 = (h0 ^ uint64(d.param[i])) * fnvPrime64
		}
		idx := d.indices
		i := 0
		for ; i+4 <= len(idx); i += 4 {
			h0 = (h0 ^ uint64(uint32(idx[i]))) * fnvPrime64
			h1 = (h1 ^ uint64(uint32(idx[i+1]))) * fnvPrime64
			h2 = (h2 ^ uint64(uint32(idx[i+2]))) * fnvPrime64
			h3 = (h3 ^ uint64(uint32(idx[i+3]))) * fnvPrime64
		}
		for ; i < len(idx); i++ {
			h0 = (h0 ^ uint64(uint32(idx[i]))) * fnvPrime64
		}
		if d.values != nil {
			vs := d.values
			i = 0
			for ; i+4 <= len(vs); i += 4 {
				h0 = (h0 ^ uint64(math.Float32bits(vs[i]))) * fnvPrime64
				h1 = (h1 ^ uint64(math.Float32bits(vs[i+1]))) * fnvPrime64
				h2 = (h2 ^ uint64(math.Float32bits(vs[i+2]))) * fnvPrime64
				h3 = (h3 ^ uint64(math.Float32bits(vs[i+3]))) * fnvPrime64
			}
			for ; i < len(vs); i++ {
				h0 = (h0 ^ uint64(math.Float32bits(vs[i]))) * fnvPrime64
			}
		} else {
			vs := d.values16
			i = 0
			for ; i+4 <= len(vs); i += 4 {
				h0 = (h0 ^ uint64(vs[i])) * fnvPrime64
				h1 = (h1 ^ uint64(vs[i+1])) * fnvPrime64
				h2 = (h2 ^ uint64(vs[i+2])) * fnvPrime64
				h3 = (h3 ^ uint64(vs[i+3])) * fnvPrime64
			}
			for ; i < len(vs); i++ {
				h0 = (h0 ^ uint64(vs[i])) * fnvPrime64
			}
		}
	}
	h0 = (h0 ^ h1) * fnvPrime64
	h0 = (h0 ^ h2) * fnvPrime64
	h0 = (h0 ^ h3) * fnvPrime64
	return h0
}

// VerifyLevel recomputes level l's checksum against the value sealed at
// Build time. A mismatch wraps ErrStoreCorrupt. l = 0 (the dense level has
// no deltas) and out-of-range levels are errors of usage, not integrity.
func (s *CheckpointStore) VerifyLevel(l int) error {
	if l < 1 || l >= len(s.deltas) {
		return fmt.Errorf("core: VerifyLevel(%d) out of range [1,%d)", l, len(s.deltas))
	}
	if got := levelChecksum(s.deltas[l]); got != s.sums[l] {
		return fmt.Errorf("core: level L%d recovery data checksum %#x != sealed %#x: %w", l, got, s.sums[l], ErrStoreCorrupt)
	}
	return nil
}

// Verify checks every level's checksum and returns the first failure.
func (s *CheckpointStore) Verify() error {
	for l := 1; l < len(s.deltas); l++ {
		if err := s.VerifyLevel(l); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointID returns the store's provenance fingerprint (dense prunable
// weights folded with the nested-plan delta layout), computed once at seal
// time. Every view returns this same cached value, so cloning a thousand
// instances hashes the weights exactly once.
func (s *CheckpointStore) CheckpointID() uint64 { return s.ckpt }

// NumLevels returns the level-library size including the dense level L0.
func (s *CheckpointStore) NumLevels() int { return len(s.levels) }

// Refs returns the number of views currently attached to the store.
func (s *CheckpointStore) Refs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs
}

// Acquire increments the view refcount. NewView calls it for every view it
// hands out; a matching Release must follow or the leak detector in fleet
// teardown tests fires.
func (s *CheckpointStore) Acquire() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

// Release decrements the view refcount. Releasing below zero is reported
// as an error (an over-release is a lifecycle bug, not a crash).
func (s *CheckpointStore) Release() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refs <= 0 {
		return fmt.Errorf("core: checkpoint store over-released (refcount %d)", s.refs)
	}
	s.refs--
	return nil
}

// SharedBytes returns the memory held once in the store regardless of how
// many views attach: the sealed dense snapshot plus the recovery store
// (indices and displaced values). Mask bitsets, shared through the level
// library, are counted too.
func (s *CheckpointStore) SharedBytes() int64 {
	var n int64
	for _, dp := range s.dense {
		n += int64(len(dp.data)) * 4
	}
	n += s.StoreBytes()
	for _, lvl := range s.levels {
		if lvl.Plan == nil {
			continue
		}
		for _, m := range lvl.Plan.Masks {
			n += m.StorageBytes()
		}
	}
	return n
}

// StoreBytes returns the recovery store's footprint: displaced values plus
// their indices (experiment T1's memory-overhead result).
func (s *CheckpointStore) StoreBytes() int64 {
	var n int64
	for _, ds := range s.deltas {
		for i := range ds {
			n += int64(len(ds[i].indices))*4 + int64(ds[i].count())*ds[i].bytesPerValue()
		}
	}
	return n
}

// StoredWeights returns the total number of displaced weights held.
func (s *CheckpointStore) StoredWeights() int64 {
	var n int64
	for _, ds := range s.deltas {
		for i := range ds {
			n += int64(ds[i].count())
		}
	}
	return n
}

// CorruptDisplaced flips one pseudo-random bit in each of n displaced
// values of the recovery store, deterministically from seed, and returns
// the number of bits flipped (less than n only when the store holds fewer
// values). It exists for the store-corrupt fault kind and integrity tests:
// the next checksum verification over a touched level must fail.
//
// The corruption hits the shared store, so it is visible to every attached
// view — which is exactly the blast radius real memory corruption would
// have. The chaos harness arms it only on instances built over unshared
// stores.
func (s *CheckpointStore) CorruptDisplaced(n int, seed int64) int {
	total := s.StoredWeights()
	if total == 0 || n <= 0 {
		return 0
	}
	// Deterministic 64-bit LCG (Knuth MMIX constants); no math/rand so the
	// corruption pattern is a pure function of the seed.
	x := uint64(seed)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	flipped := 0
	for i := 0; i < n; i++ {
		if s.flipDisplacedBit(int64(next()%uint64(total)), next()) {
			flipped++
		}
	}
	return flipped
}

// flipDisplacedBit flips one bit (chosen by rnd) of the target-th displaced
// value in store order. Returns false only if target is out of range.
func (s *CheckpointStore) flipDisplacedBit(target int64, rnd uint64) bool {
	for l := 1; l < len(s.deltas); l++ {
		for di := range s.deltas[l] {
			d := &s.deltas[l][di]
			c := int64(d.count())
			if target >= c {
				target -= c
				continue
			}
			if d.values != nil {
				d.values[target] = math.Float32frombits(math.Float32bits(d.values[target]) ^ (1 << (rnd % 32)))
			} else {
				d.values16[target] ^= 1 << uint16(rnd%16)
			}
			return true
		}
	}
	return false
}

// StoreObserver is an optional extension of TransitionObserver. When the
// installed observer also implements it, the view reports every checksum
// verification (one call per level crossed on a revert path) and its
// residency accounting after each completed transition;
// internal/telemetry.Hooks implements it to feed the rpn_store_* families.
type StoreObserver interface {
	// ObserveStoreCheck reports one per-level checksum verification on a
	// restore path; ok is false when the store was found corrupt.
	ObserveStoreCheck(ok bool)
	// ObserveStoreResidency reports the view's private resident bytes and
	// the shared fraction shared/(shared+private) of its total footprint.
	ObserveStoreResidency(privateBytes int64, sharedRatio float64)
}

// Store returns the shared checkpoint store backing this view.
func (rm *ReversibleModel) Store() *CheckpointStore { return rm.store }

// NewView clones a fleet instance from the store: arch (a freshly
// constructed, architecture-identical model) is re-pointed at the sealed
// dense snapshot and wrapped in a ReversibleModel starting at L0.
//
// Prunable parameters alias the snapshot copy-on-write — the first
// transition that writes a parameter materializes a private copy — so a
// just-cloned view retains O(active deltas), not O(model). Non-prunable
// parameters (biases, affine terms) are copied. Views are inference-only:
// their gradient accumulators are dropped, and calibration (Calibrate,
// SetCost) belongs to the first view, before cloning, since level metadata
// is shared.
//
// The view holds one store reference; Release it when the instance is torn
// down.
func (s *CheckpointStore) NewView(arch *nn.Sequential) (*ReversibleModel, error) {
	if arch == nil {
		return nil, fmt.Errorf("core: NewView with nil model")
	}
	if len(s.dense) == 0 {
		return nil, fmt.Errorf("core: NewView on a payload-only store (no dense snapshot)")
	}
	params := arch.Params()
	if len(params) != len(s.dense) {
		return nil, fmt.Errorf("core: NewView architecture has %d parameters, snapshot has %d", len(params), len(s.dense))
	}
	for _, dp := range s.dense {
		p := arch.Param(dp.name)
		if p == nil {
			return nil, fmt.Errorf("core: NewView architecture lacks parameter %q", dp.name)
		}
		if p.Value.Len() != len(dp.data) {
			return nil, fmt.Errorf("core: NewView parameter %q has %d weights, snapshot has %d", dp.name, p.Value.Len(), len(dp.data))
		}
		if p.Prunable != dp.prunable {
			return nil, fmt.Errorf("core: NewView parameter %q prunable=%v, snapshot has %v", dp.name, p.Prunable, dp.prunable)
		}
	}
	view := &ReversibleModel{model: arch, store: s, aliased: make(map[string]bool, len(s.dense))}
	for _, dp := range s.dense {
		p := arch.Param(dp.name)
		if dp.prunable {
			p.Value.SetData(dp.data)
			view.aliased[dp.name] = true
		} else {
			copy(p.Value.Data(), dp.data)
			view.privateBytes += int64(len(dp.data)) * 4
		}
		// Inference-only view: release the gradient accumulator so the
		// clone does not carry a second O(model) buffer.
		p.Grad = nil
	}
	view.rebindAll()
	s.Acquire()
	return view, nil
}

// Release detaches the view from its store. Further ApplyLevel calls on
// the view fail; a second Release is reported as an error (the lifecycle
// bug the refcount exists to catch), not a panic.
func (rm *ReversibleModel) Release() error {
	if rm.released {
		return fmt.Errorf("core: view of store %#x already released (double Release)", rm.store.ckpt)
	}
	rm.released = true
	return rm.store.Release()
}

// Released reports whether Release has been called on this view.
func (rm *ReversibleModel) Released() bool { return rm.released }

// PrivateBytes returns the view's resident weight memory: materialized
// copy-on-write buffers plus the copied non-prunable parameters. A freshly
// cloned view reports only the latter (a few biases); the number grows as
// transitions touch parameters.
func (rm *ReversibleModel) PrivateBytes() int64 { return rm.privateBytes }

// SharedRatio returns shared/(shared+private): the fraction of this view's
// total weight-and-store footprint resident once in the shared store. 1.0
// means a pure alias.
func (rm *ReversibleModel) SharedRatio() float64 {
	shared := rm.store.SharedBytes()
	total := shared + rm.privateBytes
	if total == 0 {
		return 1
	}
	return float64(shared) / float64(total)
}

// Privatize materializes every still-aliased prunable parameter, giving
// the view private copies of all weight buffers. Chaos harnesses call it
// before arming fault injectors that write weights directly (NaN poison,
// bit flips), so injected damage stays within the targeted instance
// instead of reaching siblings through the shared snapshot.
func (rm *ReversibleModel) Privatize() {
	for name, shared := range rm.aliased {
		if shared {
			rm.materialize(name)
		}
	}
}

// CorruptDisplaced forwards to the store's displaced-value corruptor (the
// store-corrupt fault point lands on the view it targets).
func (rm *ReversibleModel) CorruptDisplaced(n int, seed int64) int {
	return rm.store.CorruptDisplaced(n, seed)
}

// materialize gives the view a private copy of one prunable parameter the
// first time a transition writes it: the snapshot buffer is copied, the
// live tensor re-pointed, and the cached per-delta buffers rebound.
func (rm *ReversibleModel) materialize(name string) {
	if !rm.aliased[name] {
		return
	}
	p := rm.model.Param(name)
	private := make([]float32, p.Value.Len())
	copy(private, p.Value.Data())
	p.Value.SetData(private)
	rm.aliased[name] = false
	rm.privateBytes += int64(len(private)) * 4
	rm.rebind(name, private)
	rm.reportResidency()
}

// rebind updates the cached live-buffer slice of every delta touching the
// given parameter.
func (rm *ReversibleModel) rebind(name string, buf []float32) {
	for l := 1; l < len(rm.store.deltas); l++ {
		for di := range rm.store.deltas[l] {
			if rm.store.deltas[l][di].param == name {
				rm.bufs[l][di] = buf
			}
		}
	}
}

// rebindAll rebuilds the per-delta live-buffer cache from the model's
// current tensors. The cache mirrors store.deltas index-for-index so the
// ApplyLevel hot loop stays allocation- and lookup-free.
func (rm *ReversibleModel) rebindAll() {
	rm.bufs = make([][][]float32, len(rm.store.deltas))
	for l := 1; l < len(rm.store.deltas); l++ {
		rm.bufs[l] = make([][]float32, len(rm.store.deltas[l]))
		for di := range rm.store.deltas[l] {
			rm.bufs[l][di] = rm.model.Param(rm.store.deltas[l][di].param).Value.Data()
		}
	}
}

// reportResidency pushes the view's current residency accounting to the
// observer, when one implementing StoreObserver is installed.
func (rm *ReversibleModel) reportResidency() {
	if so, ok := rm.observer.(StoreObserver); ok {
		so.ObserveStoreResidency(rm.privateBytes, rm.SharedRatio())
	}
}
