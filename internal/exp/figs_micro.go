package exp

import (
	"context"
	"fmt"

	"desc/internal/baseline"
	"desc/internal/bitutil"
	"desc/internal/core"
	"desc/internal/stats"
	"desc/internal/synth"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig03",
		Title: "Figure 3: parallel vs serial vs DESC transfer of one byte",
		Run:   runFig03,
	})
	register(Experiment{
		ID:    "fig05",
		Title: "Figure 5: two 3-bit chunks over a single wire",
		Run:   runFig05,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: time windows in basic and zero-skipped DESC",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: distribution of four-bit chunk values",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: fraction of chunks matching the previous chunk",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Figure 17: synthesis results for DESC transmitter and receiver",
		Run:   runFig17,
	})
}

// runFig03 transfers the byte 01010011 with the three techniques of the
// paper's introductory example (paper: 4, 5, and 3 bit-flips).
func runFig03(context.Context, *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 3: one byte (01010011) from an all-zero bus",
		"Technique", "Wires", "Cycles", "Bit-flips")

	par, err := baseline.NewBinary(8, 8)
	if err != nil {
		return nil, err
	}
	c := par.Send([]byte{0x53})
	t.AddRow("Parallel", "8", fmt.Sprint(c.Cycles), fmt.Sprint(c.Flips.Total()))

	ser, err := baseline.NewSerial(8)
	if err != nil {
		return nil, err
	}
	c = ser.Send([]byte{0x53})
	t.AddRow("Serial", "1", fmt.Sprint(c.Cycles), fmt.Sprint(c.Flips.Total()))

	d, err := core.NewCodec(8, 4, 2, core.SkipNone)
	if err != nil {
		return nil, err
	}
	c = d.Send([]byte{0x53})
	t.AddRow("DESC", "2+reset", fmt.Sprint(c.Cycles), fmt.Sprint(c.Flips.Data+c.Flips.Control))
	return []*stats.Table{t}, nil
}

// runFig05 reproduces the timing example: values 2 then 1 on one wire take
// 3 then 2 cycles.
func runFig05(context.Context, *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 5: per-chunk serialization timing",
		"Chunk value", "Cycles")
	d, err := core.NewCodec(8, 4, 1, core.SkipNone)
	if err != nil {
		return nil, err
	}
	// Chunk 0 = 2 (3 cycles), chunk 1 = 1 (2 cycles): per-round costs.
	c2 := d.Send([]byte{0x02}) // second chunk 0 -> 1 cycle round
	d.Reset()
	c21 := d.Send([]byte{0x12})
	t.AddRow("2", fmt.Sprint(c2.Cycles-1))
	t.AddRow("1", fmt.Sprint(c21.Cycles-(c2.Cycles-1)))
	t.AddRow("total (2 then 1)", fmt.Sprint(c21.Cycles))
	return []*stats.Table{t}, nil
}

// runFig10 reproduces the value-skipping example: chunks (0,0,5,0) need
// 5 flips in a 6-cycle window basic, 3 flips in a 5-cycle window
// zero-skipped.
func runFig10(context.Context, *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 10: chunks (0,0,5,0) on four wires",
		"Variant", "Window (cycles)", "Bit-flips (data+reset)")
	block := bitutil.FromChunks([]uint16{0, 0, 5, 0}, 4)
	for _, kind := range []core.SkipKind{core.SkipNone, core.SkipZero} {
		d, err := core.NewCodec(16, 4, 4, kind)
		if err != nil {
			return nil, err
		}
		c := d.Send(block)
		t.AddRow(kind.String(), fmt.Sprint(c.Cycles), fmt.Sprint(c.Flips.Data+c.Flips.Control))
	}
	return []*stats.Table{t}, nil
}

// runFig12 measures the average frequency of each 4-bit chunk value over
// the parallel workloads (paper: 31% zeros, remainder near uniform).
func runFig12(_ context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	samples := 2000
	if opt.Quick {
		samples = 300
	}
	hist := stats.NewHistogram(16)
	for _, p := range opt.benchmarks() {
		g := workload.NewGenerator(p, opt.Seed)
		bh := stats.NewHistogram(16)
		var block [64]byte
		for i := 0; i < samples; i++ {
			g.FillBlockData(uint64(i)*8192, block[:])
			for c := 0; c < 128; c++ {
				bh.Add(int((block[c/2] >> (4 * uint(c%2))) & 0xF))
			}
		}
		hist.Merge(bh)
	}
	t := stats.NewTable("Figure 12: average frequency of transferred chunk values",
		"Chunk value", "Frequency")
	for v := 0; v < 16; v++ {
		t.AddRowValues(fmt.Sprint(v), hist.Frac(v))
	}
	return []*stats.Table{t}, nil
}

// runFig13 measures the fraction of chunks matching the previously
// transferred chunk on the same wire (paper geomean: 39%).
func runFig13(_ context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	samples := 1000
	if opt.Quick {
		samples = 200
	}
	t := stats.NewTable("Figure 13: chunks matching the previous chunk on their wire",
		"Benchmark", "Match fraction")
	var vals []float64
	for _, p := range opt.benchmarks() {
		g := workload.NewGenerator(p, opt.Seed)
		_, m := g.MeasureValueStats(samples)
		vals = append(vals, m)
		t.AddRowValues(p.Name, m)
	}
	geo, err := stats.GeoMeanStrict(vals)
	if err != nil {
		return nil, fmt.Errorf("exp: fig13: %w", err)
	}
	t.AddRowValues("Geomean", geo)
	return []*stats.Table{t}, nil
}

// runFig17 reports the structural synthesis estimates for the 128-chunk
// DESC transmitter and receiver at 45nm (paper: ~2000 um^2 TX, 46 mW
// combined peak, 625 ps combined delay).
func runFig17(context.Context, *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 17: DESC interface synthesis estimates (45nm, 128 chunks)",
		"Block", "Area (um^2)", "Peak power (mW)", "Delay (ns)")
	tx := synth.Transmitter(wiremodel.Node45, 128, 4)
	rx := synth.Receiver(wiremodel.Node45, 128, 4)
	both := synth.Interface(wiremodel.Node45, 128, 4)
	for _, row := range []struct {
		name string
		e    synth.Estimate
	}{{"Transmitter", tx}, {"Receiver", rx}, {"TX+RX", both}} {
		t.AddRow(row.name,
			fmt.Sprintf("%.0f", row.e.AreaUM2),
			fmt.Sprintf("%.1f", row.e.PeakPowerMW),
			fmt.Sprintf("%.3f", row.e.DelayNs))
	}
	return []*stats.Table{t}, nil
}
