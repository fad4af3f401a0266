package baseline

import (
	"fmt"
	"math"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
)

// InvertMode selects the bus-invert variant.
type InvertMode int

const (
	// InvertOnly is classic bus-invert coding: one invert wire per
	// segment; the segment is transmitted inverted whenever that halves
	// the Hamming distance.
	InvertOnly InvertMode = iota
	// InvertZeroSkip adds a zero-indicator wire per segment (the paper's
	// sparse "Zero Skipped Bus Invert"): an all-zero segment is signaled
	// on the indicator and the data wires stay silent. The encoder
	// accounts for indicator-wire flips when choosing the mode, as the
	// paper specifies.
	InvertZeroSkip
	// InvertEncodedZeroSkip replaces the per-segment wires with a single
	// dense mode field covering all segments (the paper's "Encoded Zero
	// Skipped Bus Invert"): each segment's mode is one of
	// {non-inverted, inverted, skipped}, and the base-3 mode vector is
	// binary-encoded on ceil(log2 3^segments) wires.
	InvertEncodedZeroSkip
)

// maxWordModeSegs is the widest mode vector held as one integer: 3^40 <
// 2^64, so up to 40 segments the base-3 mode field value fits a uint64
// and its binary wires are that word's bits. Wider links fall back to
// multi-precision long division over a []bool field.
const maxWordModeSegs = 40

// String returns the scheme name used in the registry.
func (m InvertMode) String() string {
	switch m {
	case InvertOnly:
		return "bic"
	case InvertZeroSkip:
		return "bic-zs"
	case InvertEncodedZeroSkip:
		return "bic-ezs"
	default:
		return fmt.Sprintf("InvertMode(%d)", int(m))
	}
}

// BusInvert implements the three bus-invert variants over a segmented bus.
// Wire state lives in uint64 words and per-segment costs are popcounts, so
// the codec stays fast on the simulator's hot path; segments never straddle
// word boundaries because segBits divides 64 (or is a multiple of it).
type BusInvert struct {
	blockBits int
	wires     int
	segBits   int
	segs      int
	mode      InvertMode

	state   []uint64 // data wire levels
	scratch []uint64 // beat being encoded
	invert  []bool   // per-segment invert wire levels
	zero    []bool   // per-segment zero-indicator levels

	// The dense mode field (ezs): modeWires wires whose levels are the
	// bits of modeWord when segs <= maxWordModeSegs, else of modeBus.
	modeWires int
	modeWord  uint64
	modeBus   []bool

	modes   []int // scratch: per-segment mode of the current beat
	rxModes []int // scratch: modes re-decoded from the mode field (ezs)
	digits  []int // scratch: base-3 digit vector during long division
	decoded []byte
}

// NewBusInvert builds a bus-invert link. dataWires must be divisible by
// segBits, and segBits must pack into 64-bit words (divide 64 or be a
// multiple of 64).
func NewBusInvert(blockBits, dataWires, segBits int, mode InvertMode) (*BusInvert, error) {
	if err := validGeometry(blockBits, dataWires); err != nil {
		return nil, err
	}
	if segBits <= 0 || dataWires%segBits != 0 {
		return nil, fmt.Errorf("baseline: %d wires not divisible into %d-bit segments", dataWires, segBits)
	}
	if segBits < 64 && 64%segBits != 0 {
		return nil, fmt.Errorf("baseline: %d-bit segments straddle 64-bit words", segBits)
	}
	if segBits > 64 && segBits%64 != 0 {
		return nil, fmt.Errorf("baseline: %d-bit segments are not whole words", segBits)
	}
	segs := dataWires / segBits
	words := (dataWires + 63) / 64
	l := &BusInvert{
		blockBits: blockBits,
		wires:     dataWires,
		segBits:   segBits,
		segs:      segs,
		mode:      mode,
		state:     make([]uint64, words),
		scratch:   make([]uint64, words),
		modes:     make([]int, segs),
	}
	switch mode {
	case InvertOnly:
		l.invert = make([]bool, segs)
	case InvertZeroSkip:
		l.invert = make([]bool, segs)
		l.zero = make([]bool, segs)
	case InvertEncodedZeroSkip:
		l.modeWires = encodedModeWires(segs)
		l.rxModes = make([]int, segs)
		if segs > maxWordModeSegs {
			l.modeBus = make([]bool, l.modeWires)
			l.digits = make([]int, segs)
		}
	default:
		return nil, fmt.Errorf("baseline: unknown invert mode %d", int(mode))
	}
	return l, nil
}

// encodedModeWires returns ceil(log2(3^segs)): the width of the dense
// base-3 mode field.
func encodedModeWires(segs int) int {
	return int(math.Ceil(float64(segs) * math.Log2(3)))
}

// Name implements link.Link.
func (l *BusInvert) Name() string { return l.mode.String() }

// DataWires implements link.Link.
func (l *BusInvert) DataWires() int { return l.wires }

// ExtraWires implements link.Link.
func (l *BusInvert) ExtraWires() int {
	switch l.mode {
	case InvertOnly:
		return l.segs
	case InvertZeroSkip:
		return 2 * l.segs
	default:
		return l.modeWires
	}
}

// BlockBytes implements link.Link.
func (l *BusInvert) BlockBytes() int { return l.blockBits / 8 }

// Segments returns the number of bus segments.
func (l *BusInvert) Segments() int { return l.segs }

const (
	modeNormal = 0
	modeInvert = 1
	modeSkip   = 2
)

// segView returns the data and current-state bits of segment s, the word
// index, shift, and mask. Segments wider than a word are handled by the
// multi-word path in hdSeg/writeSeg.
func (l *BusInvert) segGeom(s int) (firstWord, shift int, mask uint64, words int) {
	bitOff := s * l.segBits
	if l.segBits >= 64 {
		return bitOff / 64, 0, ^uint64(0), l.segBits / 64
	}
	mask = (uint64(1) << uint(l.segBits)) - 1
	return bitOff / 64, bitOff % 64, mask, 1
}

// hdSeg returns (hamming distance to data, whether data is all zero).
func (l *BusInvert) hdSeg(s int) (hd int, allZero bool) {
	fw, shift, mask, words := l.segGeom(s)
	if words == 1 {
		data := (l.scratch[fw] >> uint(shift)) & mask
		cur := (l.state[fw] >> uint(shift)) & mask
		return bits.OnesCount64(data ^ cur), data == 0
	}
	allZero = true
	for w := 0; w < words; w++ {
		data := l.scratch[fw+w]
		hd += bits.OnesCount64(data ^ l.state[fw+w])
		if data != 0 {
			allZero = false
		}
	}
	return hd, allZero
}

// writeSeg drives segment s to the beat's data (optionally inverted) and
// returns the flips.
func (l *BusInvert) writeSeg(s int, inverted bool) int {
	fw, shift, mask, words := l.segGeom(s)
	if words == 1 {
		data := (l.scratch[fw] >> uint(shift)) & mask
		if inverted {
			data = ^data & mask
		}
		cur := (l.state[fw] >> uint(shift)) & mask
		l.state[fw] = (l.state[fw] &^ (mask << uint(shift))) | (data << uint(shift))
		return bits.OnesCount64(cur ^ data)
	}
	flips := 0
	for w := 0; w < words; w++ {
		data := l.scratch[fw+w]
		if inverted {
			data = ^data
		}
		flips += bits.OnesCount64(l.state[fw+w] ^ data)
		l.state[fw+w] = data
	}
	return flips
}

// Send implements link.Link.
//
//desclint:hotpath
func (l *BusInvert) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("baseline: %s Send of %d bits on %d-bit link", l.Name(), len(block)*8, l.blockBits))
	}
	if cap(l.decoded) < len(block) {
		l.decoded = make([]byte, len(block))
	}
	l.decoded = l.decoded[:len(block)]

	beats := (l.blockBits + l.wires - 1) / l.wires
	var dataFlips, ctrlFlips uint64
	for b := 0; b < beats; b++ {
		loadBits(l.scratch, block, b*l.wires, l.wires)
		if l.segBits == 8 {
			l.sendBeatBytes(&dataFlips, &ctrlFlips)
		} else {
			for s := 0; s < l.segs; s++ {
				l.modes[s] = l.chooseMode(s, &dataFlips, &ctrlFlips)
			}
		}
		if l.mode == InvertEncodedZeroSkip {
			ctrlFlips += l.driveModeField(l.modes)
		}
		l.decodeBeat(b)
	}
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}
}

// sendBeatBytes is the word-parallel encoder for the common byte-segment
// geometry: a word holds 8 segments, so the per-segment Hamming distances
// are the byte lanes of one BytePopcounts and the all-zero segments fall
// out of one ByteZeroMask. The mode decisions (which depend on the
// persistent per-segment control-wire levels) stay scalar, but they read
// precomputed lane aggregates, and the data wires drive as two masked
// words instead of per-segment shifts. It must agree with chooseMode
// bit-for-bit; the refBusInvert oracle pins both.
//
//desclint:hotpath runs once per beat on byte-segment geometries
func (l *BusInvert) sendBeatBytes(dataFlips, ctrlFlips *uint64) {
	for w := range l.scratch {
		data := l.scratch[w]
		pc := bitutil.BytePopcounts(data ^ l.state[w]) // per-segment Hamming distance
		zm := bitutil.ByteZeroMask(data)               // all-zero segments
		lanes := l.segs - w*8
		if lanes > 8 {
			lanes = 8
		}
		var invMask, keepMask uint64
		for i := 0; i < lanes; i++ {
			s := w*8 + i
			sh := 8 * uint(i)
			hd := int(pc >> sh & 0xFF)
			hdInv := 8 - hd
			allZero := zm>>sh&0x80 != 0

			m := modeNormal
			switch l.mode {
			case InvertOnly:
				costN, costI := hd, hdInv
				if l.invert[s] {
					costN++
				} else {
					costI++
				}
				if costI < costN {
					m = modeInvert
				}
			case InvertZeroSkip:
				costN := hd + flipCost(l.invert[s], false) + flipCost(l.zero[s], false)
				costI := hdInv + flipCost(l.invert[s], true) + flipCost(l.zero[s], false)
				switch {
				case allZero && flipCost(l.zero[s], true) <= costN && flipCost(l.zero[s], true) <= costI:
					m = modeSkip
				case costI < costN:
					m = modeInvert
				}
			default: // InvertEncodedZeroSkip
				switch {
				case allZero:
					m = modeSkip
				case hdInv < hd:
					m = modeInvert
				}
			}
			l.modes[s] = m

			switch m {
			case modeSkip:
				// Data and invert wires untouched; only the
				// zero indicator (if any) can flip.
				keepMask |= uint64(0xFF) << sh
				if l.mode == InvertZeroSkip {
					*ctrlFlips += uint64(setLevel(l.zero, s, true))
				}
			case modeInvert:
				invMask |= uint64(0xFF) << sh
				*dataFlips += uint64(hdInv)
				if l.mode != InvertEncodedZeroSkip {
					*ctrlFlips += uint64(setLevel(l.invert, s, true))
				}
				if l.mode == InvertZeroSkip {
					*ctrlFlips += uint64(setLevel(l.zero, s, false))
				}
			default:
				*dataFlips += uint64(hd)
				if l.mode != InvertEncodedZeroSkip {
					*ctrlFlips += uint64(setLevel(l.invert, s, false))
				}
				if l.mode == InvertZeroSkip {
					*ctrlFlips += uint64(setLevel(l.zero, s, false))
				}
			}
		}
		// Drive: skipped segments keep their old levels, inverted ones
		// take the complement, the rest take the data directly. Padding
		// lanes beyond the bus are zero in both data and state.
		l.state[w] = (data^invMask)&^keepMask | l.state[w]&keepMask
	}
}

// chooseMode encodes one segment of the current beat: it picks the
// cheapest legal mode, drives the wires, and accumulates flips.
func (l *BusInvert) chooseMode(s int, dataFlips, ctrlFlips *uint64) int {
	hd, allZero := l.hdSeg(s)
	hdInv := l.segBits - hd

	switch l.mode {
	case InvertOnly:
		costN, costI := hd, hdInv
		if l.invert[s] {
			costN++
		} else {
			costI++
		}
		if costI < costN {
			*dataFlips += uint64(l.writeSeg(s, true))
			*ctrlFlips += uint64(setLevel(l.invert, s, true))
			return modeInvert
		}
		*dataFlips += uint64(l.writeSeg(s, false))
		*ctrlFlips += uint64(setLevel(l.invert, s, false))
		return modeNormal

	case InvertZeroSkip:
		costN := hd + flipCost(l.invert[s], false) + flipCost(l.zero[s], false)
		costI := hdInv + flipCost(l.invert[s], true) + flipCost(l.zero[s], false)
		costS := -1
		if allZero {
			costS = flipCost(l.zero[s], true) // data and invert untouched
		}
		if costS >= 0 && costS <= costN && costS <= costI {
			*ctrlFlips += uint64(setLevel(l.zero, s, true))
			return modeSkip
		}
		if costI < costN {
			*dataFlips += uint64(l.writeSeg(s, true))
			*ctrlFlips += uint64(setLevel(l.invert, s, true))
			*ctrlFlips += uint64(setLevel(l.zero, s, false))
			return modeInvert
		}
		*dataFlips += uint64(l.writeSeg(s, false))
		*ctrlFlips += uint64(setLevel(l.invert, s, false))
		*ctrlFlips += uint64(setLevel(l.zero, s, false))
		return modeNormal

	default: // InvertEncodedZeroSkip
		// The mode field is shared, so the per-segment decision
		// minimizes data flips only.
		if allZero {
			return modeSkip // data wires untouched
		}
		if hdInv < hd {
			*dataFlips += uint64(l.writeSeg(s, true))
			return modeInvert
		}
		*dataFlips += uint64(l.writeSeg(s, false))
		return modeNormal
	}
}

// driveModeField binary-encodes the base-3 mode vector onto the mode wires
// and returns the flips. Up to maxWordModeSegs segments the field value
// V = sum(mode_i * 3^i) is one integer, so the flips are the popcount of
// its change.
//
//desclint:hotpath runs once per beat on bic-ezs
func (l *BusInvert) driveModeField(modes []int) uint64 {
	if l.modeBus == nil {
		var v uint64
		for i := len(modes) - 1; i >= 0; i-- {
			v = v*3 + uint64(modes[i])
		}
		flips := uint64(bits.OnesCount64(l.modeWord ^ v))
		l.modeWord = v
		return flips
	}
	// Multi-precision conversion: repeatedly divide the base-3 digit
	// vector by two, collecting remainders as bits.
	digits := l.digits
	copy(digits, modes)
	flips := uint64(0)
	for b := range l.modeBus {
		rem := 0
		for i := len(digits) - 1; i >= 0; i-- {
			cur := rem*3 + digits[i]
			digits[i] = cur / 2
			rem = cur % 2
		}
		v := rem == 1
		if l.modeBus[b] != v {
			l.modeBus[b] = v
			flips++
		}
	}
	return flips
}

// readModeField decodes the base-3 mode vector from the mode wires into
// the reused rxModes scratch: base-3 digits of the field value, least
// significant first.
//
//desclint:hotpath runs once per beat on bic-ezs
func (l *BusInvert) readModeField(segs int) []int {
	modes := l.rxModes[:segs]
	if l.modeBus == nil {
		v := l.modeWord
		for i := range modes {
			modes[i] = int(v % 3)
			v /= 3
		}
		return modes
	}
	for i := range modes {
		modes[i] = 0
	}
	for b := len(l.modeBus) - 1; b >= 0; b-- {
		carry := 0
		if l.modeBus[b] {
			carry = 1
		}
		for i := 0; i < segs; i++ {
			cur := modes[i]*2 + carry
			modes[i] = cur % 3
			carry = cur / 3
		}
	}
	return modes
}

// segMode resolves the mode the receiver observes for segment s: from the
// per-segment control wires for the sparse variants, from the re-decoded
// mode field for the dense one.
func (l *BusInvert) segMode(modes []int, s int) int {
	switch l.mode {
	case InvertOnly:
		if l.invert[s] {
			return modeInvert
		}
		return modeNormal
	case InvertZeroSkip:
		switch {
		case l.zero[s]:
			return modeSkip
		case l.invert[s]:
			return modeInvert
		default:
			return modeNormal
		}
	default:
		return modes[s]
	}
}

// decodeBeat reconstructs the receiver's view of beat b into the decoded
// buffer from the wire state and indicator/mode wires.
//
//desclint:hotpath runs once per beat
func (l *BusInvert) decodeBeat(b int) {
	modes := l.modes
	if l.mode == InvertEncodedZeroSkip {
		modes = l.readModeField(l.segs)
	}
	if l.segBits == 8 {
		// Byte segments: apply all of a word's modes with two masks.
		for w := range l.scratch {
			lanes := l.segs - w*8
			if lanes > 8 {
				lanes = 8
			}
			var invMask, skipMask uint64
			for i := 0; i < lanes; i++ {
				switch l.segMode(modes, w*8+i) {
				case modeInvert:
					invMask |= uint64(0xFF) << (8 * uint(i))
				case modeSkip:
					skipMask |= uint64(0xFF) << (8 * uint(i))
				}
			}
			l.scratch[w] = (l.state[w] ^ invMask) &^ skipMask
		}
		storeBits(l.decoded, l.scratch, b*l.wires, l.wires)
		return
	}
	// Build the receiver's word view, then store.
	for w := range l.scratch {
		l.scratch[w] = l.state[w]
	}
	for s := 0; s < l.segs; s++ {
		m := l.segMode(modes, s)
		if m == modeNormal {
			continue
		}
		fw, shift, mask, words := l.segGeom(s)
		for w := 0; w < words; w++ {
			switch m {
			case modeSkip:
				if words == 1 {
					l.scratch[fw] &^= mask << uint(shift)
				} else {
					l.scratch[fw+w] = 0
				}
			case modeInvert:
				if words == 1 {
					l.scratch[fw] ^= mask << uint(shift)
				} else {
					l.scratch[fw+w] = ^l.scratch[fw+w]
				}
			}
		}
	}
	storeBits(l.decoded, l.scratch, b*l.wires, l.wires)
}

// LastDecoded implements link.Decoder. The slice is overwritten by the
// next Send; copy to retain.
func (l *BusInvert) LastDecoded() []byte { return l.decoded }

// Reset implements link.Link.
func (l *BusInvert) Reset() {
	for i := range l.state {
		l.state[i] = 0
	}
	for i := range l.invert {
		l.invert[i] = false
	}
	for i := range l.zero {
		l.zero[i] = false
	}
	l.modeWord = 0
	for i := range l.modeBus {
		l.modeBus[i] = false
	}
	l.decoded = nil
}

// setLevel drives the control line for segment s to level v and returns
// the flip count (0 or 1).
func setLevel(levels []bool, s int, v bool) int {
	if levels[s] == v {
		return 0
	}
	levels[s] = v
	return 1
}

// flipCost returns 1 if driving a wire from state cur to level want would
// flip it, else 0.
func flipCost(cur, want bool) int {
	if cur != want {
		return 1
	}
	return 0
}

var (
	_ link.Link    = (*BusInvert)(nil)
	_ link.Decoder = (*BusInvert)(nil)
)
