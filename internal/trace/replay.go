package trace

import (
	"fmt"
	"io"

	"desc/internal/cpusim"
	"desc/internal/workload"
)

// Capture records nctx contexts of the generator's access streams,
// perContext references each, interleaved round-robin the way the
// multithreaded cores consume them.
func Capture(gen *workload.Generator, seed int64, nctx, perContext int, w io.Writer) (*Header, error) {
	if nctx <= 0 || perContext <= 0 {
		return nil, fmt.Errorf("trace: capture of %d contexts x %d refs", nctx, perContext)
	}
	h := Header{Benchmark: gen.Profile().Name, Seed: seed, Contexts: nctx}
	tw, err := NewWriter(w, h)
	if err != nil {
		return nil, err
	}
	streams := make([]*workload.Stream, nctx)
	for i := range streams {
		streams[i] = gen.Stream(i, nctx)
	}
	for n := 0; n < perContext; n++ {
		for c := 0; c < nctx; c++ {
			if err := tw.Write(Record{Ctx: c, Access: streams[c].Next()}); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return &h, nil
}

// ReplaySource feeds a recorded trace back into the simulator. It
// implements cpusim.StreamSource; when a context exhausts its recorded
// references the trace wraps around, so instruction budgets larger than
// the recording still run (document the wrap in results if it matters).
type ReplaySource struct {
	header Header
	recs   [][]workload.Access
}

// NewReplaySource drains the reader into memory.
func NewReplaySource(r *Reader) (*ReplaySource, error) {
	recs, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	for c, rs := range recs {
		if len(rs) == 0 {
			return nil, fmt.Errorf("trace: context %d has no records", c)
		}
	}
	return &ReplaySource{header: r.Header(), recs: recs}, nil
}

// Header returns the trace identity.
func (s *ReplaySource) Header() Header { return s.header }

// Generator reconstructs the workload generator the trace was recorded
// from, for block contents during replay; it reads blocks through a
// fresh block store.
func (s *ReplaySource) Generator() (*workload.Generator, error) {
	prof, ok := workload.ByName(s.header.Benchmark)
	if !ok {
		return nil, fmt.Errorf("trace: unknown benchmark %q in header", s.header.Benchmark)
	}
	return workload.NewBlocks(prof, s.header.Seed).Generator(), nil
}

// Stream implements cpusim.StreamSource. Requesting more contexts than
// recorded maps extra contexts onto the recorded ones modulo the count.
func (s *ReplaySource) Stream(ctx, nctx int) cpusim.AccessSource {
	return &replayStream{recs: s.recs[ctx%len(s.recs)]}
}

type replayStream struct {
	recs []workload.Access
	pos  int
}

// Next implements cpusim.AccessSource, wrapping at the end of the
// recording.
func (r *replayStream) Next() workload.Access {
	a := r.recs[r.pos]
	r.pos++
	if r.pos == len(r.recs) {
		r.pos = 0
	}
	return a
}
