package workload

import (
	"sync"
	"sync/atomic"
)

// Block store geometry: blocks live in 128-block pages, and the address
// index starts at 1,024 slots and doubles before it passes half full.
const (
	storePageBlocks = 128
	storeMinSlots   = 1024
)

// Blocks memoizes the generated blocks of one (Profile, seed). Block
// contents are a pure function of (profile, seed, address), so every
// simulation of a benchmark can share one store: a sweep generates each
// block once instead of once per simulation. It is safe for concurrent
// use, and a block reads back the same bytes whichever simulation
// generated it.
//
// A read writes no shared memory: it loads the current index and probes
// it with atomic loads, so simulations reading one store from several
// cores never pull a cache line away from each other. Inserts and index
// growth take one mutex; they happen only on misses, each of which has
// just generated a block.
type Blocks struct {
	gen   *Generator
	index atomic.Pointer[blockIndex]

	mu        sync.Mutex                 // serializes put
	page      *[storePageBlocks][64]byte // the page put is filling
	used      int                        // blocks of page in use
	generated int                        // blocks generated into the store, duplicates included
}

// blockIndex is an open-addressing (linear probing) table from block
// address to the block's bytes. put publishes a slot by storing its tag
// after its block, so a reader that loads a slot's tag sees the block.
// Published slots are never rewritten; growth builds a new index and
// publishes it whole, and a reader still probing the old one at worst
// misses a block and generates it again.
type blockIndex struct {
	slots []blockSlot
	shift uint // 64 - log2(len(slots))
	n     int  // published slots (read and written under Blocks.mu)
}

// blockSlot is one index entry. Its tag and block pointer share a cache
// line, so a hit reads two lines: the slot's and the block's.
type blockSlot struct {
	tag atomic.Uint64 // addr|1 once published, 0 while empty
	blk *[64]byte     // the published block, in a page
}

// newBlockIndex returns an empty index of n slots, a power of two.
func newBlockIndex(n int) *blockIndex {
	ix := &blockIndex{slots: make([]blockSlot, n), shift: 64}
	for ; n > 1; n >>= 1 {
		ix.shift--
	}
	return ix
}

// probe returns the slot holding addr, or the empty slot where it would
// go, and whether addr was found. The index is never more than half
// full, so the probe meets an empty slot.
func (ix *blockIndex) probe(addr uint64) (int, bool) {
	tag := addr | 1
	mask := len(ix.slots) - 1
	// Fibonacci hashing: the top bits of the product spread the block
	// numbers of a sequential stream over the whole table.
	for i := int((addr >> 6) * 0x9e3779b97f4a7c15 >> ix.shift); ; i = (i + 1) & mask {
		switch ix.slots[i].tag.Load() {
		case tag:
			return i, true
		case 0:
			return i, false
		}
	}
}

// grown returns a copy of ix with twice the slots. The caller publishes
// it; until then no reader can see it.
func (ix *blockIndex) grown() *blockIndex {
	nx := newBlockIndex(2 * len(ix.slots))
	for i := range ix.slots {
		if tag := ix.slots[i].tag.Load(); tag != 0 {
			j, _ := nx.probe(tag &^ 1)
			nx.slots[j].blk = ix.slots[i].blk
			nx.slots[j].tag.Store(tag)
		}
	}
	nx.n = ix.n
	return nx
}

// NewBlocks returns an empty store for (prof, seed).
func NewBlocks(prof Profile, seed int64) *Blocks {
	b := &Blocks{gen: NewGenerator(prof, seed)}
	b.gen.store = b
	b.index.Store(newBlockIndex(storeMinSlots))
	return b
}

// Generator returns the store's generator: its FillBlockData reads
// through the store, and its streams are NewGenerator(prof, seed)'s. The
// generator is bound to this store, so blocks of another (profile, seed)
// can never enter it.
func (b *Blocks) Generator() *Generator { return b.gen }

// Len returns the number of distinct blocks the store holds.
func (b *Blocks) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.index.Load().n
}

// Generated returns how many blocks have been generated into the store.
// It exceeds Len only when concurrent fills of one address raced.
func (b *Blocks) Generated() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.generated
}

// get copies the stored block at addr into block and reports whether the
// store held it. It takes no lock, writes no shared memory and allocates
// nothing.
//
//desclint:hotpath
func (b *Blocks) get(addr uint64, block []byte) bool {
	ix := b.index.Load()
	i, ok := ix.probe(addr)
	if ok {
		copy(block, ix.slots[i].blk[:])
	}
	return ok
}

// put stores the block at addr, generated outside any lock. The first
// insert wins; a concurrent duplicate is the same bytes, so dropping it
// is harmless.
func (b *Blocks) put(addr uint64, data *[64]byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.generated++
	ix := b.index.Load()
	i, ok := ix.probe(addr)
	if ok {
		return
	}
	if 2*(ix.n+1) > len(ix.slots) {
		ix = ix.grown()
		b.index.Store(ix)
		i, _ = ix.probe(addr)
	}
	if b.page == nil || b.used == storePageBlocks {
		b.page, b.used = new([storePageBlocks][64]byte), 0
	}
	blk := &b.page[b.used]
	b.used++
	*blk = *data
	ix.slots[i].blk = blk
	ix.n++
	ix.slots[i].tag.Store(addr | 1)
}
