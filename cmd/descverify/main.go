// Command descverify is the repository's self-check: it exercises the
// paper's golden vectors, cross-checks the cycle-accurate DESC hardware
// model against the analytic codec on random traffic, round-trips every
// registered transfer scheme, and stresses the SECDED interleaving with
// injected wire errors. It exits non-zero on the first discrepancy.
//
// This is the tool to run after modifying any codec or protocol code:
//
//	go run ./cmd/descverify [-blocks 500] [-seed 1]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"desc"
	"desc/internal/bitutil"
	"desc/internal/core"
	"desc/internal/ecc"
	"desc/internal/workload"
)

var failures int

func check(ok bool, format string, args ...interface{}) {
	if ok {
		fmt.Printf("ok    "+format+"\n", args...)
	} else {
		fmt.Printf("FAIL  "+format+"\n", args...)
		failures++
	}
}

func main() {
	blocks := flag.Int("blocks", 500, "random blocks per cross-check")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	goldenVectors()
	crossCheck(*blocks, *seed)
	schemeRoundTrips(*blocks, *seed)
	eccStress(*blocks, *seed)

	if failures > 0 {
		fmt.Printf("\n%d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

// goldenVectors pins the paper's worked examples.
func goldenVectors() {
	c, _ := desc.NewCodec(8, 4, 2, desc.SkipNone)
	cost := c.Send([]byte{0x53})
	check(cost.Flips.Data+cost.Flips.Control == 3 && cost.Cycles == 6,
		"Figure 3: byte 01010011 -> 3 flips in 6 cycles (got %d in %d)",
		cost.Flips.Data+cost.Flips.Control, cost.Cycles)

	block := bitutil.FromChunks([]uint16{0, 0, 5, 0}, 4)
	basic, _ := desc.NewCodec(16, 4, 4, desc.SkipNone)
	b := basic.Send(block)
	zs, _ := desc.NewCodec(16, 4, 4, desc.SkipZero)
	z := zs.Send(block)
	check(b.Flips.Total()-b.Flips.Sync == 5 && b.Cycles == 6 &&
		z.Flips.Total()-z.Flips.Sync == 3 && z.Cycles == 5,
		"Figure 10: (0,0,5,0) basic 5f/6c, zero-skip 3f/5c (got %df/%dc and %df/%dc)",
		b.Flips.Total()-b.Flips.Sync, b.Cycles, z.Flips.Total()-z.Flips.Sync, z.Cycles)
}

// crossCheck replays identical random traffic through the cycle-accurate
// channel and the analytic codec for every DESC variant.
func crossCheck(blocks int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, kind := range []core.SkipKind{core.SkipNone, core.SkipZero, core.SkipLast, core.SkipAdaptive} {
		ch, err := core.NewChannel(512, 4, 128, kind, 2)
		if err != nil {
			check(false, "channel %v: %v", kind, err)
			continue
		}
		codec, _ := core.NewCodec(512, 4, 128, kind)
		mismatches := 0
		for i := 0; i < blocks; i++ {
			block := make([]byte, 64)
			if i%3 != 0 {
				rng.Read(block)
			}
			gotCost, decoded := ch.Send(block)
			wantCost := codec.Send(block)
			if !bytes.Equal(decoded, block) || gotCost != wantCost {
				mismatches++
			}
		}
		check(mismatches == 0, "%-20v cycle-accurate == analytic over %d blocks (%d mismatches)",
			kind, blocks, mismatches)
	}
}

// schemeRoundTrips sends benchmark-like traffic through every registered
// scheme and verifies lossless decode.
func schemeRoundTrips(blocks int, seed int64) {
	prof, _ := workload.ByName("Art")
	gen := workload.NewGenerator(prof, seed)
	for _, scheme := range desc.Schemes() {
		l, err := desc.NewLink(desc.LinkSpec{
			Scheme: scheme, BlockBits: 512, DataWires: 64,
			ChunkBits: 4, SegmentBits: 8,
		})
		if err != nil {
			check(false, "%s: %v", scheme, err)
			continue
		}
		dec, ok := l.(interface{ LastDecoded() []byte })
		if !ok {
			check(false, "%s exposes no decoder", scheme)
			continue
		}
		bad := 0
		block := make([]byte, 64)
		for i := 0; i < blocks; i++ {
			gen.FillBlockData(uint64(i)*4096, block)
			l.Send(block)
			// LastDecoded aliases a buffer the next Send overwrites
			// (link.Decoder); compare before sending again.
			if !bytes.Equal(dec.LastDecoded(), block) {
				bad++
			}
		}
		check(bad == 0, "%-12s lossless over %d blocks (%d bad)", scheme, blocks, bad)
	}
}

// eccStress injects random single wire errors into the Figure 9 layout.
func eccStress(trials int, seed int64) {
	iv, err := ecc.NewInterleaver(512, 128, 4)
	if err != nil {
		check(false, "interleaver: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(seed))
	block := make([]byte, 64)
	rng.Read(block)
	uncorrected := 0
	for i := 0; i < trials; i++ {
		chunks := iv.Encode(block)
		c := rng.Intn(len(chunks))
		ecc.CorruptChunk(chunks, c, chunks[c]^uint16(1+rng.Intn(15)))
		got, _ := iv.Decode(chunks)
		if !bytes.Equal(got, block) {
			uncorrected++
		}
	}
	check(uncorrected == 0, "SECDED corrects %d random single wire errors (%d escaped)",
		trials, uncorrected)
}
