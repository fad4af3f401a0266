// Bus comparison: measure every transfer scheme's wire activity on the
// synthetic benchmark traffic of Table 2.
//
// For each benchmark profile this example streams cache blocks through all
// registered schemes and reports flips per block and bus occupancy — the
// raw quantities behind the paper's Figure 16 energy comparison — plus the
// zero-chunk and previous-chunk-match statistics of Figures 12 and 13.
//
// Run with:
//
//	go run ./examples/buscomparison [-bench CG] [-blocks 5000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"desc"
	"desc/internal/workload"
)

func main() {
	bench := flag.String("bench", "CG", "benchmark profile")
	blocks := flag.Int("blocks", 5000, "blocks to transfer")
	flag.Parse()

	prof, ok := workload.ByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	gen := workload.NewGenerator(prof, 1)
	z, m := gen.MeasureValueStats(*blocks)
	fmt.Printf("%s (%s): %.1f%% zero chunks (Fig 12), %.1f%% previous-chunk matches (Fig 13)\n\n",
		prof.Name, prof.Suite, 100*z, 100*m)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\twires\tflips/block\tcycles/block\tvs binary")
	// Run binary first so every row can normalize against it.
	schemes := append([]string{"binary"}, desc.Schemes()...)
	seen := map[string]bool{}
	var binaryFlips float64
	for _, scheme := range schemes {
		if seen[scheme] {
			continue
		}
		seen[scheme] = true
		spec := desc.LinkSpec{
			Scheme: scheme, BlockBits: 512,
			DataWires: 64, ChunkBits: 4, SegmentBits: 8,
		}
		if scheme == "desc-basic" || scheme == "desc-zero" || scheme == "desc-last" {
			spec.DataWires = 128 // the paper's DESC design point
		}
		if scheme == "serial" {
			spec.DataWires = 1
		}
		l, err := desc.NewLink(spec)
		if err != nil {
			log.Fatal(err)
		}
		var flips, cycles uint64
		block := make([]byte, 64)
		for i := 0; i < *blocks; i++ {
			gen.FillBlockData(uint64(i)*4096, block)
			c := l.Send(block)
			flips += c.Flips.Total()
			cycles += uint64(c.Cycles)
		}
		fpb := float64(flips) / float64(*blocks)
		if scheme == "binary" {
			binaryFlips = fpb
		}
		rel := "-"
		if binaryFlips > 0 {
			rel = fmt.Sprintf("%.2fx", fpb/binaryFlips)
		}
		fmt.Fprintf(w, "%s\t%d+%d\t%.1f\t%.1f\t%s\n",
			scheme, l.DataWires(), l.ExtraWires(), fpb, float64(cycles)/float64(*blocks), rel)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
