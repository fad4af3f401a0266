package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/workload"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "Radix", Seed: -7, Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	if h.Benchmark != "Radix" || h.Seed != -7 || h.Contexts != 4 {
		t.Errorf("header = %+v", h)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("empty trace Read = %v, want EOF", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "Art", Contexts: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Ctx: 0, Access: workload.Access{Addr: 0x1000, Gap: 5}},
		{Ctx: 1, Access: workload.Access{Addr: 0xFFFF0000, Write: true}},
		{Ctx: 0, Access: workload.Access{Addr: 0x0FC0, Gap: 1}}, // negative delta
		{Ctx: 2, Access: workload.Access{Addr: 0, Gap: 100}},
		{Ctx: 1, Access: workload.Access{Addr: 0xFFFF0040, Write: false}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != uint64(len(recs)) {
		t.Errorf("Records = %d", w.Records())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("trailing Read = %v, want EOF", err)
	}
}

func TestWriterRejectsBadContext(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "x", Contexts: 2})
	if err := w.Write(Record{Ctx: 2}); err == nil {
		t.Error("out-of-range context accepted")
	}
	if _, err := NewWriter(&buf, Header{Contexts: 0}); err == nil {
		t.Error("zero contexts accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// recordStream returns a valid two-context header followed by raw
// record bytes.
func recordStream(t testing.TB, records []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "Art", Seed: 1, Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), records...)
}

// ctxTwoTo63 is a record for context 2^63, which wrapped negative when
// converted to int before the range check and then indexed lastAddr.
var ctxTwoTo63 = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0, 0}

// TestReaderRejectsBadRecords: records no Writer produces fail with a
// named error instead of panicking or being misread.
func TestReaderRejectsBadRecords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record []byte
		want   error
	}{
		{"context 2^63", ctxTwoTo63, ErrContext},
		{"context past header", []byte{2, 0, 0, 0}, ErrContext},
		{"op byte 2", []byte{0, 0, 2, 0}, ErrOp},
		{"op byte 0xFF", []byte{1, 0, 0xFF, 0}, ErrOp},
		{"gap 2^63", []byte{0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0}, ErrGap},
	} {
		r, err := NewReader(bytes.NewReader(recordStream(t, tc.record)))
		if err != nil {
			t.Fatalf("%s: header: %v", tc.name, err)
		}
		if _, err := r.Read(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Read = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzTraceReader: arbitrary bytes after the magic must either read as
// records or fail with an error — never panic.
func FuzzTraceReader(f *testing.F) {
	f.Add(recordStream(f, ctxTwoTo63))
	f.Add(recordStream(f, []byte{0, 5, 1, 0x80, 0x20, 1, 0, 0, 0x7F}))
	f.Add(recordStream(f, []byte{0, 0, 2, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		contexts := r.Header().Contexts
		for {
			rec, err := r.Read()
			if err != nil {
				return
			}
			if rec.Ctx < 0 || rec.Ctx >= contexts || rec.Access.Gap < 0 {
				t.Fatalf("accepted record %+v of %d contexts", rec, contexts)
			}
		}
	})
}

// TestCaptureReplayTimingIdentical: replaying a captured trace through the
// simulator reproduces the live run cycle for cycle, because the streams
// and the block contents are both deterministic.
func TestCaptureReplayTimingIdentical(t *testing.T) {
	prof, _ := workload.ByName("Radix")
	const seed, instr = 3, 2000

	live := func() cpusim.Result {
		gen := workload.NewGenerator(prof, seed)
		h, err := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpusim.Run(context.Background(), cpusim.Config{InstrPerContext: instr, Seed: seed}, h, gen)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	// Capture enough references to cover the instruction budget.
	var buf bytes.Buffer
	gen := workload.NewGenerator(prof, seed)
	if _, err := Capture(gen, seed, 32, 2500, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	dataGen, err := src.Generator()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}, dataGen)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := cpusim.RunWith(context.Background(), cpusim.Config{InstrPerContext: instr, Seed: seed}, h, src)
	if err != nil {
		t.Fatal(err)
	}

	if replay.Cycles != live.Cycles || replay.MemRefs != live.MemRefs {
		t.Errorf("replay (%d cycles, %d refs) differs from live (%d cycles, %d refs)",
			replay.Cycles, replay.MemRefs, live.Cycles, live.MemRefs)
	}
}

// TestReplayWraps: a short recording loops rather than running dry.
func TestReplayWraps(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "Art", Contexts: 1})
	for i := 0; i < 3; i++ {
		w.Write(Record{Ctx: 0, Access: workload.Access{Addr: uint64(i) * 64}})
	}
	w.Flush()
	r, _ := NewReader(&buf)
	src, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	s := src.Stream(0, 1)
	for i := 0; i < 7; i++ {
		got := s.Next().Addr
		want := uint64(i%3) * 64
		if got != want {
			t.Fatalf("access %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestReplayUnknownBenchmark: replaying a trace from an unknown profile
// fails loudly when block contents are needed.
func TestReplayUnknownBenchmark(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "mystery", Contexts: 1})
	w.Write(Record{Ctx: 0})
	w.Flush()
	r, _ := NewReader(&buf)
	src, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Generator(); err == nil {
		t.Error("unknown benchmark resolved")
	}
}
