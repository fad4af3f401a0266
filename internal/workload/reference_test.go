package workload

import (
	"math"
	"testing"
)

// This file freezes the chunk-at-a-time block generator as it stood before
// genBlock was rewritten to build whole 64-bit words. It is the executable
// definition of the block contents: every figure's value statistics come
// from it, so the production generator must match it byte for byte, and
// the calibrated spill correction must match it bit for bit.

// refGenBlock is the frozen genBlock.
func refGenBlock(g *Generator, addr uint64, buf *[64]byte) {
	const chunksPerBlock = 512 / chunkBits
	const chunksPerWord = 64 / chunkBits

	pz := g.prof.ZeroChunkFrac / (1 - wordComplProb)
	if pz > 0.9 {
		pz = 0.9
	}
	qz := zeroRunThresh
	pzLo, pzHi := zeroSplit(pz * g.spillCorr)
	entry := func(p float64) uint16 {
		e := p * (1 - zeroRunProb) / (1 - p)
		if e >= 1 {
			return 65535
		}
		return uint16(e * 65536)
	}
	p0Lo, p0Hi := entry(pzLo), entry(pzHi)
	psCondf := float64(g.sharedThresh-g.zeroThresh) / 65536 / (1 - pz)
	psCond := uint16(65535)
	if psCondf < 1 {
		psCond = uint16(psCondf * 65536)
	}

	prevZero := false
	for c := 0; c < chunksPerBlock; c++ {
		if c%chunksPerWord == 0 && c > 0 {
			wh := mix(g.seed ^ mix(addr+uint64(c)*0x9E6C63D0876A9A63))
			if d := uint16(wh); d < wordComplThresh {
				if d < wordRepeatThresh {
					copy(buf[c/2:c/2+8], buf[c/2-8:c/2])
				} else {
					for i := 0; i < 8; i++ {
						buf[c/2+i] = ^buf[c/2-8+i]
					}
				}
				c += chunksPerWord - 1
				prevZero = buf[(c)/2]>>(4*uint(c%2))&0xF == 0
				continue
			}
		}
		h := mix(g.seed ^ mix(addr+uint64(c)*0x632BE59BD9B4E019))
		zdraw := uint16(h)
		vdraw := uint16(h >> 16)
		var v byte
		zThresh := p0Lo
		if c%16 >= 12 {
			zThresh = p0Hi
		}
		if prevZero {
			zThresh = qz
		}
		switch {
		case zdraw < zThresh:
			v = 0
		case vdraw < psCond:
			v = g.patterns[c]
		default:
			v = refLowNibble(vdraw)
		}
		prevZero = v == 0
		if c%2 == 0 {
			buf[c/2] = v
		} else {
			buf[c/2] |= v << 4
		}
	}
}

// refLowNibble is the frozen lowNibble.
func refLowNibble(draw uint16) byte {
	a := byte(draw&0xFF) % 15
	b := byte(draw>>8) % 15
	if b < a {
		a = b
	}
	return a + 1
}

// refCalibrateSpill is the frozen calibrateSpill, returning the correction
// instead of storing it. It leaves g's spill state as it found it.
func refCalibrateSpill(g *Generator) float64 {
	saved := g.spillCorr
	defer g.setSpill(saved)
	measure := func(corr float64) float64 {
		g.spillCorr = corr
		zeros, total := 0, 0
		var buf [64]byte
		for i := 0; i < 240; i++ {
			addr := mix(g.seed+uint64(i)*402653189) % (1 << 28) &^ 63
			refGenBlock(g, addr, &buf)
			for c := 0; c < 128; c++ {
				if (buf[c/2]>>(4*uint(c%2)))&0xF == 0 {
					zeros++
				}
				total++
			}
		}
		return float64(zeros) / float64(total)
	}
	lo, hi := 0.5, 1.2
	for i := 0; i < 18; i++ {
		mid := (lo + hi) / 2
		if measure(mid) < g.prof.ZeroChunkFrac {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// referenceSeeds are the generator seeds the equivalence tests cover,
// including a negative one (seeds are reinterpreted as uint64).
var referenceSeeds = []int64{-3, 0, 1, 2, 7}

// referenceAddrs returns n block addresses covering address 0, the top of
// the address space, the shared region every parallel stream touches, each
// context's private region, and hashed addresses in between.
func referenceAddrs(n int) []uint64 {
	addrs := []uint64{0, 64, ^uint64(63), ^uint64(127), sharedBase, sharedBase + 64}
	for ctx := 0; ctx < 4; ctx++ {
		addrs = append(addrs, uint64(ctx+1)<<40)
	}
	for i := 0; len(addrs) < n; i++ {
		x := mix(uint64(i) * 0xD1B54A32D192ED03)
		switch i % 4 {
		case 0:
			addrs = append(addrs, x&^63)
		case 1:
			addrs = append(addrs, sharedBase+x%(64<<20)&^63)
		case 2:
			addrs = append(addrs, uint64(i%32+1)<<40+x%(64<<20)&^63)
		default:
			addrs = append(addrs, x%(1<<30)&^63)
		}
	}
	return addrs
}

func allProfiles() []Profile { return append(Parallel(), SPEC()...) }

// TestGenBlockMatchesReference: the word-at-a-time generator produces the
// frozen generator's bytes for every profile, seed and address, through
// genBlock, a plain generator's FillBlockData, and a store-backed
// generator's FillBlockData both when it generates the block and when the
// store already holds it.
func TestGenBlockMatchesReference(t *testing.T) {
	addrs := referenceAddrs(4096)
	for _, p := range allProfiles() {
		for _, seed := range referenceSeeds {
			g := NewGenerator(p, seed)
			shared := NewBlocks(p, seed).Generator()
			var got, want [64]byte
			fill := make([]byte, 64)
			for _, a := range addrs {
				g.genBlock(a, &got)
				refGenBlock(g, a, &want)
				if got != want {
					t.Fatalf("%s seed %d addr %#x:\n got %x\nwant %x", p.Name, seed, a, got, want)
				}
				g.FillBlockData(a, fill)
				if string(fill) != string(want[:]) {
					t.Fatalf("%s seed %d addr %#x: FillBlockData differs from reference", p.Name, seed, a)
				}
				shared.FillBlockData(a, fill)
				if string(fill) != string(want[:]) {
					t.Fatalf("%s seed %d addr %#x: store-backed FillBlockData differs from reference", p.Name, seed, a)
				}
			}
			// Every block again, now from the filled store.
			for _, a := range addrs {
				refGenBlock(g, a, &want)
				shared.FillBlockData(a, fill)
				if string(fill) != string(want[:]) {
					t.Fatalf("%s seed %d addr %#x: stored block differs from reference", p.Name, seed, a)
				}
			}
		}
	}
}

// TestSpillCorrectionMatchesReference: the calibrated spill correction is
// bit-identical to the frozen calibration, both when NewGenerator computes
// it and when it comes from the per-(profile, seed) memo.
func TestSpillCorrectionMatchesReference(t *testing.T) {
	for _, p := range allProfiles() {
		for _, seed := range referenceSeeds {
			forgetSpill(p, seed)
			fresh := NewGenerator(p, seed)
			want := refCalibrateSpill(fresh)
			if math.Float64bits(fresh.spillCorr) != math.Float64bits(want) {
				t.Errorf("%s seed %d: fresh spill correction %v, reference %v", p.Name, seed, fresh.spillCorr, want)
			}
			if got := calibrateSpill(fresh); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s seed %d: recalibrated spill correction %v, reference %v", p.Name, seed, got, want)
			}
			memo := NewGenerator(p, seed)
			if math.Float64bits(memo.spillCorr) != math.Float64bits(want) {
				t.Errorf("%s seed %d: memoized spill correction %v, reference %v", p.Name, seed, memo.spillCorr, want)
			}
		}
	}
}

// forgetSpill drops one memoized spill correction so the next
// NewGenerator for (p, seed) calibrates afresh.
func forgetSpill(p Profile, seed int64) {
	spillMemo.Lock()
	delete(spillMemo.m, spillKey{p, seed})
	spillMemo.Unlock()
}

// FuzzGenBlockVsReference drives the equivalence over arbitrary seeds and
// addresses for every built-in profile.
func FuzzGenBlockVsReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint64(0))
	f.Add(uint8(5), int64(-3), ^uint64(0))
	f.Add(uint8(23), int64(7), sharedBase+4096)
	profiles := allProfiles()
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, addr uint64) {
		p := profiles[int(pi)%len(profiles)]
		g := NewGenerator(p, seed)
		addr &^= 63
		var got, want [64]byte
		g.genBlock(addr, &got)
		refGenBlock(g, addr, &want)
		if got != want {
			t.Fatalf("%s seed %d addr %#x:\n got %x\nwant %x", p.Name, seed, addr, got, want)
		}
	})
}
