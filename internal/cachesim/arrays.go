package cachesim

import "fmt"

// Both cache arrays store each per-line field in one flat slice indexed
// set*ways+way, so a set's ways are adjacent and a whole array costs a
// handful of allocations. Lookups return that flat line index (-1 when the
// block is absent) together with the set's base index, and the per-line
// operations take the index, so a caller that looked a block up once can
// act on its line without scanning the set again.

// l1State is the coherence state of an L1 line (MESI collapsed to the
// three states that matter for this study; Exclusive is folded into
// Modified on first write and into Shared otherwise).
type l1State uint8

const (
	l1Shared l1State = iota
	l1Modified
)

// l1Cache is one core's set-associative, write-back, write-allocate L1
// data cache with LRU replacement.
type l1Cache struct {
	sets    int
	ways    int
	blkBits uint
	tags    []uint64 // 0 = invalid
	state   []l1State
	lru     []uint8 // lower = more recently used
}

func newL1(capacity, ways, blockBytes int) (*l1Cache, error) {
	if capacity <= 0 || ways <= 0 || blockBytes <= 0 {
		return nil, fmt.Errorf("cachesim: invalid L1 geometry")
	}
	sets := capacity / blockBytes / ways
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: L1 sets %d not a power of two", sets)
	}
	blkBits := uint(0)
	for 1<<blkBits < blockBytes {
		blkBits++
	}
	n := sets * ways
	c := &l1Cache{sets: sets, ways: ways, blkBits: blkBits,
		tags: make([]uint64, n), state: make([]l1State, n), lru: make([]uint8, n)}
	for i := range c.lru {
		c.lru[i] = uint8(i % ways)
	}
	return c, nil
}

// index returns addr's set base index and tag.
func (c *l1Cache) index(addr uint64) (base int, tag uint64) {
	blk := addr >> c.blkBits
	return int(blk%uint64(c.sets)) * c.ways, blk + 1 // +1 so tag 0 means invalid
}

// find returns addr's set base and line index (-1 when absent).
//
//desclint:hotpath
func (c *l1Cache) find(addr uint64) (base, line int) {
	base, tag := c.index(addr)
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base, base + i
		}
	}
	return base, -1
}

// touch updates LRU order and, on writes, promotes the line to Modified.
func (c *l1Cache) touch(base, line int, write bool) {
	promote(c.lru[base:base+c.ways], line-base)
	if write {
		c.state[line] = l1Modified
	}
}

// promote makes way w the most recently used of a set's LRU ranks.
//
//desclint:hotpath
func promote(lru []uint8, w int) {
	old := lru[w]
	for i, r := range lru {
		if r < old {
			lru[i]++
		}
	}
	lru[w] = 0
}

// allocate installs addr, returning the evicted block address and whether
// it was dirty. The line state starts Shared (or Modified when allocated
// by a write).
func (c *l1Cache) allocate(addr uint64, write bool) (victim uint64, dirty bool) {
	base, tag := c.index(addr)
	// Choose LRU way (highest LRU value), preferring invalid ways.
	line := base
	best := uint8(0)
	for w := base; w < base+c.ways; w++ {
		if c.tags[w] == 0 {
			line = w
			break
		}
		if c.lru[w] >= best {
			best = c.lru[w]
			line = w
		}
	}
	if c.tags[line] != 0 && c.state[line] == l1Modified {
		victim = (c.tags[line] - 1) << c.blkBits
		dirty = true
	}
	c.tags[line] = tag
	if write {
		c.state[line] = l1Modified
	} else {
		c.state[line] = l1Shared
	}
	promote(c.lru[base:base+c.ways], line-base)
	return victim, dirty
}

// invalidate drops addr if present, reporting whether it was there.
// (A dirty line invalidated by coherence has already been written back by
// the caller.)
func (c *l1Cache) invalidate(addr uint64) bool {
	_, line := c.find(addr)
	if line < 0 {
		return false
	}
	c.tags[line] = 0
	c.state[line] = l1Shared
	return true
}

// l2Cache is the shared L2 tag/directory store: banked, set associative,
// LRU, with a sharer bitmask and dirty-owner tracking per line.
type l2Cache struct {
	setsPerBank int
	ways        int
	banks       int
	blkBits     uint
	tags        []uint64
	dirty       []bool
	sharers     []uint32
	owner       []int8 // core holding the line Modified in its L1; -1 none
	lru         []uint8
	prefetched  []bool // filled by the prefetcher, not yet demanded
}

func newL2(capacity, ways, blockBytes, banks int) (*l2Cache, error) {
	if capacity <= 0 || ways <= 0 || blockBytes <= 0 || banks <= 0 {
		return nil, fmt.Errorf("cachesim: invalid L2 geometry")
	}
	sets := capacity / blockBytes / ways
	if sets%banks != 0 {
		return nil, fmt.Errorf("cachesim: %d L2 sets not divisible by %d banks", sets, banks)
	}
	blkBits := uint(0)
	for 1<<blkBits < blockBytes {
		blkBits++
	}
	n := sets * ways
	c := &l2Cache{setsPerBank: sets / banks, ways: ways, banks: banks, blkBits: blkBits,
		tags: make([]uint64, n), dirty: make([]bool, n), sharers: make([]uint32, n),
		owner: make([]int8, n), lru: make([]uint8, n), prefetched: make([]bool, n)}
	for i := 0; i < n; i++ {
		c.owner[i] = -1
		c.lru[i] = uint8(i % ways)
	}
	return c, nil
}

// index returns addr's set base index and tag.
func (c *l2Cache) index(addr uint64) (base int, tag uint64) {
	blk := addr >> c.blkBits
	bank := blk % uint64(c.banks)
	row := (blk / uint64(c.banks)) % uint64(c.setsPerBank)
	return (int(bank)*c.setsPerBank + int(row)) * c.ways, blk + 1
}

// find returns addr's set base and line index (-1 when absent).
//
//desclint:hotpath
func (c *l2Cache) find(addr uint64) (base, line int) {
	base, tag := c.index(addr)
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base, base + i
		}
	}
	return base, -1
}

// promote refreshes a present line's LRU rank.
func (c *l2Cache) promote(base, line int) {
	promote(c.lru[base:base+c.ways], line-base)
}

// allocate installs addr and returns its line and any dirty victim.
func (c *l2Cache) allocate(addr uint64) (line int, victim uint64, victimDirty bool) {
	base, tag := c.index(addr)
	line, best := base, uint8(0)
	for w := base; w < base+c.ways; w++ {
		if c.tags[w] == 0 {
			line = w
			break
		}
		if c.lru[w] >= best {
			best = c.lru[w]
			line = w
		}
	}
	if c.tags[line] != 0 && c.dirty[line] {
		blk := c.tags[line] - 1
		victim = blk << c.blkBits
		victimDirty = true
	}
	c.tags[line] = tag
	c.dirty[line] = false
	c.sharers[line] = 0
	c.owner[line] = -1
	c.prefetched[line] = false
	c.promote(base, line)
	return line, victim, victimDirty
}

// recordL1 tracks which core holds the line after a fill (no-op for an
// absent line).
func (c *l2Cache) recordL1(line, core int, write bool) {
	if line < 0 {
		return
	}
	c.sharers[line] |= 1 << uint(core)
	if write {
		c.owner[line] = int8(core)
		c.dirty[line] = true
	}
}

// dirtyOwner returns the core holding the line Modified, or -1.
func (c *l2Cache) dirtyOwner(line int) int {
	if line < 0 {
		return -1
	}
	return int(c.owner[line])
}

// markDirty records an L1 writeback into addr's line.
func (c *l2Cache) markDirty(addr uint64) {
	_, line := c.find(addr)
	if line < 0 {
		return
	}
	c.dirty[line] = true
	c.owner[line] = -1
}

// clearSharers drops every sharer of the line except `except`.
func (c *l2Cache) clearSharers(line, except int) {
	if line < 0 {
		return
	}
	c.sharers[line] &= 1 << uint(except)
	if int(c.owner[line]) != except {
		c.owner[line] = -1
	}
}
