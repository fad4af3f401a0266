package workload

import (
	"encoding/binary"
	"math/rand"
	"sync"
)

// chunkBits is the chunk granularity at which value statistics are
// calibrated (the paper's Figures 12/13 use the 4-bit DESC interface).
const chunkBits = 4

// Block geometry: a 64-byte block is eight 64-bit words of 16 chunks.
const (
	chunksPerWord = 64 / chunkBits
	wordsPerBlock = 8
)

// Generator produces deterministic block contents and per-context access
// streams for one benchmark profile. It is immutable after construction,
// so one generator may serve concurrent simulations.
type Generator struct {
	prof Profile
	seed uint64
	// pShared is the per-chunk probability of drawing the per-position
	// pattern value, derived from LastValueMatchFrac.
	pShared float64
	// patterns holds the per-position pattern nibble (Figures 12/13
	// mechanism: distinct blocks share values at the same positions).
	patterns [128]byte
	// thresholds quantized to 16 bits for the fast category draw.
	zeroThresh, sharedThresh uint16

	// spillCorr compensates zero-run spillover across offset groups so
	// the realized zero marginal matches the profile target; calibrated
	// at construction.
	spillCorr float64
	// p0Lo and p0Hi are the zero-chain entry thresholds of the low and
	// top-quarter word offsets, and psCond the pattern threshold given a
	// non-zero chunk; setSpill derives them from spillCorr.
	p0Lo, p0Hi, psCond uint16

	// store, when non-nil, is the block store FillBlockData reads
	// through; only Blocks.Generator sets it.
	store *Blocks
}

// NewGenerator builds a generator. The seed isolates runs; block data and
// access streams are fully determined by (profile, seed).
func NewGenerator(prof Profile, seed int64) *Generator {
	g := &Generator{prof: prof, seed: uint64(seed)*0x9E3779B97F4A7C15 + hashString(prof.Name)}
	g.pShared = solveSharedFrac(prof.ZeroChunkFrac, prof.LastValueMatchFrac)
	// The pattern multiset is fixed (decaying, mean 4.5, like real field
	// values); the per-benchmark seed only permutes which position carries
	// which value, so every profile sees the same value mix at shuffled
	// positions.
	base := [16]byte{1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 10, 13}
	perm := [128]int{}
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(mix(g.seed^uint64(i)*0xD6E8FEB86659FD93) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for c := range g.patterns {
		g.patterns[c] = base[perm[c]%16]
	}
	g.zeroThresh = uint16(prof.ZeroChunkFrac * 65536)
	g.sharedThresh = g.zeroThresh + uint16(g.pShared*65536)
	g.setSpill(memoSpill(g, seed))
	return g
}

// spillKey identifies a calibration: the spill correction is a pure
// function of the profile and the seed.
type spillKey struct {
	prof Profile
	seed int64
}

// spillMemoCap bounds the memo; a sweep uses a few dozen keys, but trace
// headers can carry arbitrary seeds.
const spillMemoCap = 1024

// spillMemo holds the calibrated spill correction per (profile, seed), so
// the many generators a sweep builds over the same few pairs calibrate
// once each.
var spillMemo struct {
	sync.Mutex
	m map[spillKey]float64
}

// memoSpill returns g's spill correction, calibrating on first use of its
// (profile, seed). Concurrent first uses may both calibrate; they store
// the same value.
func memoSpill(g *Generator, seed int64) float64 {
	key := spillKey{g.prof, seed}
	spillMemo.Lock()
	corr, ok := spillMemo.m[key]
	spillMemo.Unlock()
	if ok {
		return corr
	}
	corr = calibrateSpill(g)
	spillMemo.Lock()
	if spillMemo.m == nil || len(spillMemo.m) >= spillMemoCap {
		spillMemo.m = make(map[spillKey]float64)
	}
	spillMemo.m[key] = corr
	spillMemo.Unlock()
	return corr
}

// calibrateSpill bisects the spill correction until the realized zero
// fraction matches the profile target, on a small deterministic sample.
// It leaves g's spill state at the last probe; the caller installs the
// result.
func calibrateSpill(g *Generator) float64 {
	measure := func(corr float64) float64 {
		g.setSpill(corr)
		zeros, total := 0, 0
		var buf [64]byte
		for i := 0; i < 240; i++ {
			addr := mix(g.seed+uint64(i)*402653189) % (1 << 28) &^ 63
			g.genBlock(addr, &buf)
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

// setSpill installs a spill correction and the chain thresholds derived
// from it.
//
// Markov zero chain: P(zero | prev zero) = zeroRunProb, with the entry
// probability chosen so the stationary marginal equals the profile's
// ZeroChunkFrac. Conditional on non-zero, the pattern probability rescales
// to keep its marginal too. Complement words turn zero chunks into 0xF,
// diluting the zero marginal; the draw probability compensates so the
// measured zero fraction still meets the profile target.
func (g *Generator) setSpill(corr float64) {
	g.spillCorr = corr
	pz := g.prof.ZeroChunkFrac / (1 - wordComplProb)
	if pz > 0.9 {
		pz = 0.9
	}
	// Per-offset chain entry probabilities targeting the split zero
	// marginals: p0 = pz(1-qz)/(1-pz) for each offset group. Zero runs
	// spill across offset groups, lifting the realized marginal above the
	// per-offset entry targets; the calibrated correction compensates.
	pzLo, pzHi := zeroSplit(pz * corr)
	entry := func(p float64) uint16 {
		e := p * (1 - zeroRunProb) / (1 - p)
		if e >= 1 {
			return 65535
		}
		return uint16(e * 65536)
	}
	g.p0Lo, g.p0Hi = entry(pzLo), entry(pzHi)
	psCondf := float64(g.sharedThresh-g.zeroThresh) / 65536 / (1 - pz)
	g.psCond = 65535
	if psCondf < 1 {
		g.psCond = uint16(psCondf * 65536)
	}
}

// Profile returns the generator's benchmark profile.
func (g *Generator) Profile() Profile { return g.prof }

// zeroSplit returns the per-offset zero probabilities (top quarter of the
// word vs the rest) for a given marginal, renormalized under the cap.
func zeroSplit(pz float64) (lo, hi float64) {
	hi = pz * zeroHighWeight
	if hi > zeroProbCap {
		hi = zeroProbCap
	}
	lo = (16*pz - 4*hi) / 12
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// zeroMatch is the zero-zero collision term of the position-match model:
// E[pz(c)^2] over offsets.
func zeroMatch(pz float64) float64 {
	lo, hi := zeroSplit(pz)
	return (12*lo*lo + 4*hi*hi) / 16
}

// randMatchProb is the collision probability of two independent draws of
// the low-biased non-zero nibble (min of two uniforms over 1..15):
// sum over k of ((29-2k)/225)^2 = 4495/50625.
const randMatchProb = 4495.0 / 50625.0

// solveSharedFrac finds the probability ps of drawing the position pattern
// such that two independently drawn blocks match at a position with the
// target probability:
//
//	match = pz^2 + ((1-wordRepeatProb)*ps)^2 + (1-pz-ps)^2 * randMatchProb
//
// (zero/zero, pattern/pattern, or colliding random nibbles; word
// repetition replaces a pattern draw with the neighboring word's value,
// discounting the pattern term). Solved by bisection on the increasing
// branch; clamped to [0, 1-pz].
func solveSharedFrac(pz, target float64) float64 {
	a := 1 - pz
	match := func(ps float64) float64 {
		pr := a - ps
		pe := (1 - wordRepeatProb) * ps
		return zeroMatch(pz) + pe*pe + pr*pr*randMatchProb
	}
	lo := a / 16 // minimum of the quadratic
	hi := a
	if target <= match(lo) {
		return 0
	}
	if target >= match(hi) {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if match(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// hashString is a small FNV-style string hash for seeding.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is splitmix64: a strong 64-bit finalizer used to derive per-chunk
// randomness deterministically from (seed, addr, chunk).
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Spatial-structure constants, shared by all profiles. Real cache blocks
// are not chunk-wise independent: zero chunks cluster into zero bytes and
// words (whole-line zero fills, sparse structures), and adjacent words
// often repeat (arrays of identical values, padded records). Both effects
// matter to the baselines — zero clustering is what dynamic zero
// compression exploits, and word repetition lowers the beat-to-beat
// Hamming distance that conventional binary and bus-invert pay — while
// leaving DESC's per-chunk statistics (the marginals of Figures 12/13)
// untouched.
const (
	// zeroRunProb is the Markov probability that a chunk following a
	// zero chunk is also zero (mean zero-run of five chunks).
	zeroRunProb = 0.80
	// wordRepeatProb is the probability that a 64-bit word repeats the
	// previous word of the same block verbatim.
	wordRepeatProb = 0.15
	// wordComplProb is the probability that a 64-bit word is the bitwise
	// complement of the previous word (negative integers and sign flips
	// in two's complement data) — the high-Hamming-distance transitions
	// that bus-invert coding exists to absorb.
	wordComplProb = 0.06
	// zeroHighWeight skews the zero probability toward the top quarter
	// of each 64-bit word: small integers and pointers concentrate zeros
	// in their upper bytes, vertically aligning zero bytes across words —
	// the structure dynamic zero compression exploits. The low weight is
	// renormalized per profile so the zero marginal is preserved even
	// when the top-offset probability saturates.
	zeroHighWeight = 2.2
	// zeroProbCap bounds any single offset's zero probability.
	zeroProbCap = 0.95
)

// lowNibble draws a non-zero nibble biased toward small values (the min of
// two uniform draws over 1..15), matching the decaying non-zero value
// distribution of real L2 traffic: the paper reports an average
// transmitted chunk value of about five under zero skipping (Section 5.3).
func lowNibble(draw uint16) byte {
	a := byte(draw&0xFF) % 15
	b := byte(draw>>8) % 15
	if b < a {
		a = b
	}
	return a + 1
}

// fix16 converts a probability to 16-bit fixed point for hash-draw
// comparisons.
func fix16(p float64) uint16 { return uint16(p * 65536) }

// zeroRunThresh, wordRepeatThresh and wordComplThresh are the structure
// probabilities in fixed point (complement stacks above repeat in the same
// draw).
var (
	zeroRunThresh    = fix16(zeroRunProb)
	wordRepeatThresh = fix16(wordRepeatProb)
	wordComplThresh  = fix16(wordRepeatProb + wordComplProb)
)

// FillBlockData writes the 64-byte content of the block containing addr
// into the caller-provided buffer. Contents are deterministic, so
// refetching a block yields identical data; positions draw from {zero,
// per-position pattern, random nibble} with the profile's calibrated
// probabilities, so distinct blocks share structure at the same chunk
// positions — the two mechanisms behind Figures 12 and 13. A generator
// from Blocks.Generator reads through its store; any other generates the
// block afresh.
//
//desclint:hotpath
func (g *Generator) FillBlockData(addr uint64, block []byte) {
	addr &^= 63
	if g.store != nil && g.store.get(addr, block) {
		return
	}
	var buf [64]byte
	g.genBlock(addr, &buf)
	copy(block, buf[:])
	if g.store != nil {
		g.store.put(addr, &buf)
	}
}

// genBlock synthesizes the block at addr into buf, one 64-bit word at a
// time. Chunk c is the nibble at bit 4*(c%16) of word c/16, and words are
// stored little-endian, so chunk c sits in byte c/2 (low nibble for even
// c). Each word after the first is decided by its own draw: repeat the
// previous word, complement it, or draw fresh chunks.
//
//desclint:hotpath
func (g *Generator) genBlock(addr uint64, buf *[64]byte) {
	var word uint64
	for w := 0; w < wordsPerBlock; w++ {
		c0 := w * chunksPerWord
		if w > 0 {
			wh := mix(g.seed ^ mix(addr+uint64(c0)*0x9E6C63D0876A9A63))
			if d := uint16(wh); d < wordComplThresh {
				if d >= wordRepeatThresh {
					word = ^word
				}
				binary.LittleEndian.PutUint64(buf[8*w:], word)
				continue
			}
		}
		// The zero chain carries across words: a fresh word's first chunk
		// follows the previous word's top chunk.
		word = g.freshWord(addr, c0, w > 0 && word>>60 == 0)
		binary.LittleEndian.PutUint64(buf[8*w:], word)
	}
}

// freshWord draws the 16 chunks of the word starting at chunk c0. Each
// chunk's 64-bit hash yields its two 16-bit draws: the zero-chain draw
// and the value draw. The hashes do not depend on the chain, so they are
// computed first, in a branch-free loop; the chain then walks them in
// order.
//
//desclint:hotpath
func (g *Generator) freshWord(addr uint64, c0 int, prevZero bool) uint64 {
	var h [chunksPerWord]uint64
	for i := range h {
		h[i] = mix(g.seed ^ mix(addr+uint64(c0+i)*0x632BE59BD9B4E019))
	}
	pat := g.patterns[c0 : c0+chunksPerWord]
	var word uint64
	for i := range h {
		hi := h[i]
		zThresh := g.p0Lo
		if i >= 12 {
			zThresh = g.p0Hi
		}
		if prevZero {
			zThresh = zeroRunThresh
		}
		prevZero = uint16(hi) < zThresh
		if prevZero {
			continue
		}
		// Patterns and low nibbles are never zero, so a chunk is zero
		// exactly when the chain draw says so.
		vdraw := uint16(hi >> 16)
		v := pat[i]
		if vdraw >= g.psCond {
			v = lowNibble(vdraw)
		}
		word |= uint64(v) << (chunkBits * i)
	}
	return word
}

// Access is one memory reference of a context's stream.
type Access struct {
	// Addr is the byte address (block aligned).
	Addr uint64
	// Write reports a store.
	Write bool
	// Gap is the number of non-memory instructions executed before this
	// reference.
	Gap int
}

// reuseFrac is the probability that a reference re-touches a recently used
// address (temporal locality); recent addresses mostly hit in the L1 and
// keep miss rates in the range of real memory-intensive applications.
const reuseFrac = 0.72

// reuseWindow is the number of recent addresses eligible for reuse.
const reuseWindow = 48

// Stream generates the access sequence of one hardware context.
type Stream struct {
	g       *Generator
	rng     *rand.Rand
	ctx     int
	nctx    int
	seqPtr  uint64
	strPtr  uint64
	meanGap float64
	recent  [reuseWindow]uint64
	nRecent int
	wRecent int
}

// Stream returns the access stream for context ctx of nctx total contexts.
func (g *Generator) Stream(ctx, nctx int) *Stream {
	if nctx <= 0 {
		nctx = 1
	}
	s := &Stream{
		g:    g,
		rng:  rand.New(rand.NewSource(int64(mix(g.seed + uint64(ctx)*7919)))),
		ctx:  ctx,
		nctx: nctx,
	}
	refs := g.prof.MemRefsPerKInstr
	if refs <= 0 {
		refs = 250
	}
	s.meanGap = 1000.0/float64(refs) - 1
	if s.meanGap < 0 {
		s.meanGap = 0
	}
	s.seqPtr = s.privateBase() + uint64(s.rng.Intn(1024))*64
	s.strPtr = s.privateBase() + uint64(s.rng.Intn(1024))*64
	return s
}

// Region layout: the shared region holds a quarter of the working set; the
// remainder is split evenly among contexts.
const sharedBase = uint64(1) << 50

func (s *Stream) sharedSize() uint64 {
	sz := uint64(s.g.prof.WorkingSetBytes) / 4
	if sz < 64 {
		sz = 64
	}
	return sz &^ 63
}

func (s *Stream) privateSize() uint64 {
	sz := (uint64(s.g.prof.WorkingSetBytes) - s.sharedSize()) / uint64(s.nctx)
	if sz < 4096 {
		sz = 4096
	}
	return sz &^ 63
}

func (s *Stream) privateBase() uint64 {
	return uint64(s.ctx+1) << 40
}

// Next produces the context's next memory reference.
func (s *Stream) Next() Access {
	p := &s.g.prof
	var a Access
	// Geometric-ish gap with the profile's memory intensity.
	if s.meanGap > 0 {
		a.Gap = int(s.rng.ExpFloat64() * s.meanGap)
	}
	a.Write = s.rng.Float64() < p.WriteFrac

	// Temporal reuse: revisit a recent address (different word of the
	// same or a nearby block), modeling the register/block-level reuse
	// of real programs.
	if s.nRecent > 0 && s.rng.Float64() < reuseFrac {
		a.Addr = s.recent[s.rng.Intn(s.nRecent)] &^ 63
		return a
	}

	shared := p.SharedFrac > 0 && s.rng.Float64() < p.SharedFrac
	var base, size uint64
	if shared {
		base, size = sharedBase, s.sharedSize()
	} else {
		base, size = s.privateBase(), s.privateSize()
	}

	u := s.rng.Float64()
	switch {
	case u < p.SeqFrac:
		s.seqPtr += 64
		if s.seqPtr < base || s.seqPtr >= base+size {
			s.seqPtr = base
		}
		a.Addr = s.seqPtr
	case u < p.SeqFrac+p.StridedFrac:
		stride := uint64(p.StrideBytes)
		if stride < 64 {
			stride = 64
		}
		s.strPtr += stride
		if s.strPtr < base || s.strPtr >= base+size {
			s.strPtr = base + uint64(s.rng.Int63n(int64(size/64)))*64
		}
		a.Addr = s.strPtr
	default:
		a.Addr = base + uint64(s.rng.Int63n(int64(size/64)))*64
	}
	a.Addr &^= 63
	s.recent[s.wRecent] = a.Addr
	s.wRecent = (s.wRecent + 1) % reuseWindow
	if s.nRecent < reuseWindow {
		s.nRecent++
	}
	return a
}

// MeasureValueStats samples n blocks from the generator's address space and
// returns the measured zero-chunk fraction and the cross-block
// position-match fraction, the quantities plotted in Figures 12 and 13.
func (g *Generator) MeasureValueStats(n int) (zeroFrac, matchFrac float64) {
	if n < 2 {
		n = 2
	}
	var block, prev [64]byte
	zeros, matches, chunks, pairs := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		addr := mix(g.seed+uint64(i)*104729) % (1 << 30) &^ 63
		g.FillBlockData(addr, block[:])
		for c := 0; c < 128; c++ {
			v := (block[c/2] >> (4 * uint(c%2))) & 0xF
			if v == 0 {
				zeros++
			}
			chunks++
			if i > 0 {
				pv := (prev[c/2] >> (4 * uint(c%2))) & 0xF
				if v == pv {
					matches++
				}
				pairs++
			}
		}
		prev = block
	}
	return float64(zeros) / float64(chunks), float64(matches) / float64(pairs)
}

// MeanChunkValue returns the average transmitted (non-skipped) chunk value
// over n sampled blocks under zero skipping — the quantity the paper
// reports as "approximately five" (Section 5.3).
func (g *Generator) MeanChunkValue(n int) float64 {
	sum, cnt := 0.0, 0
	var block [64]byte
	for i := 0; i < n; i++ {
		addr := mix(g.seed+uint64(i)*15485863) % (1 << 30) &^ 63
		g.FillBlockData(addr, block[:])
		for c := 0; c < 128; c++ {
			v := (block[c/2] >> (4 * uint(c%2))) & 0xF
			if v != 0 {
				sum += float64(v)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
