// Package trace records and replays memory access traces. A trace file
// captures the per-context access streams of a synthetic benchmark so runs
// can be reproduced exactly, shipped to other tools, or inspected offline;
// replaying a trace through the simulator produces the same timing as the
// live generator (block *contents* are reconstructed deterministically
// from the benchmark name and seed stored in the header).
//
// # Format
//
// A trace is a stream of varint-encoded records after a small header:
//
//	magic   "DESCTRC1"
//	uvarint len(benchmark) + benchmark name
//	varint  seed
//	uvarint contexts
//	records:
//	  uvarint context id
//	  uvarint gap (instructions before the access)
//	  byte    op: 0 = read, 1 = write
//	  uvarint address delta, zig-zag encoded against the context's
//	          previous address (traces are highly local, so deltas
//	          compress well)
//
// Records for different contexts interleave freely; readers demultiplex.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"desc/internal/workload"
)

const magic = "DESCTRC1"

// Errors Reader.Read wraps, with the offending value, for records no
// Writer produces.
var (
	// ErrContext marks a record whose context id is outside the
	// header's context count.
	ErrContext = errors.New("trace: context out of range")
	// ErrOp marks a record whose op byte is neither 0 (read) nor 1
	// (write).
	ErrOp = errors.New("trace: op is not 0 (read) or 1 (write)")
	// ErrGap marks a record whose instruction gap overflows int.
	ErrGap = errors.New("trace: gap overflows int")
)

// Header identifies the workload a trace was recorded from.
type Header struct {
	// Benchmark is the profile name (must resolve via workload.ByName
	// for replay with block contents).
	Benchmark string
	// Seed is the generator seed.
	Seed int64
	// Contexts is the hardware context count the trace was recorded
	// for.
	Contexts int
}

// Record is one traced access.
type Record struct {
	// Ctx is the hardware context that issued the access.
	Ctx int
	// Access is the reference itself.
	Access workload.Access
}

// Writer emits a trace.
type Writer struct {
	w        *bufio.Writer
	contexts int
	lastAddr []uint64
	buf      [3 * binary.MaxVarintLen64]byte
	records  uint64
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Contexts <= 0 {
		return nil, fmt.Errorf("trace: %d contexts", h.Contexts)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(h.Benchmark)))
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(h.Benchmark); err != nil {
		return nil, err
	}
	n = binary.PutVarint(tmp[:], h.Seed)
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	n = binary.PutUvarint(tmp[:], uint64(h.Contexts))
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, contexts: h.Contexts, lastAddr: make([]uint64, h.Contexts)}, nil
}

// Write appends one record.
func (t *Writer) Write(r Record) error {
	if r.Ctx < 0 || r.Ctx >= t.contexts {
		return fmt.Errorf("trace: context %d of %d", r.Ctx, t.contexts)
	}
	b := t.buf[:0]
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(r.Ctx))
	b = append(b, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(r.Access.Gap))
	b = append(b, tmp[:n]...)
	if r.Access.Write {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	delta := int64(r.Access.Addr) - int64(t.lastAddr[r.Ctx])
	t.lastAddr[r.Ctx] = r.Access.Addr
	n = binary.PutVarint(tmp[:], delta)
	b = append(b, tmp[:n]...)
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	t.records++
	return nil
}

// Records returns how many records have been written.
func (t *Writer) Records() uint64 { return t.records }

// Flush completes the trace.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader consumes a trace.
type Reader struct {
	r        *bufio.Reader
	header   Header
	lastAddr []uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", got)
	}
	var h Header
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > 1024 {
		return nil, fmt.Errorf("trace: benchmark name of %d bytes", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	h.Benchmark = string(name)
	if h.Seed, err = binary.ReadVarint(br); err != nil {
		return nil, err
	}
	ctxs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ctxs == 0 || ctxs > 1<<16 {
		return nil, fmt.Errorf("trace: %d contexts", ctxs)
	}
	h.Contexts = int(ctxs)
	return &Reader{r: br, header: h, lastAddr: make([]uint64, h.Contexts)}, nil
}

// Header returns the trace identity.
func (t *Reader) Header() Header { return t.header }

// Read returns the next record, or io.EOF at the end of the trace.
func (t *Reader) Read() (Record, error) {
	ctx, err := binary.ReadUvarint(t.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	// Compare as uint64: converting first would wrap ids >= 2^63
	// negative past the check.
	if ctx >= uint64(t.header.Contexts) {
		return Record{}, fmt.Errorf("trace: record for context %d of %d: %w", ctx, t.header.Contexts, ErrContext)
	}
	gap, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	if gap > math.MaxInt {
		return Record{}, fmt.Errorf("trace: record gap %d: %w", gap, ErrGap)
	}
	op, err := t.r.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	if op > 1 {
		return Record{}, fmt.Errorf("trace: record op %d: %w", op, ErrOp)
	}
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	addr := uint64(int64(t.lastAddr[ctx]) + delta)
	t.lastAddr[ctx] = addr
	return Record{
		Ctx: int(ctx),
		Access: workload.Access{
			Addr:  addr,
			Write: op == 1,
			Gap:   int(gap),
		},
	}, nil
}

// ReadAll drains the trace into per-context slices.
func (t *Reader) ReadAll() ([][]workload.Access, error) {
	out := make([][]workload.Access, t.header.Contexts)
	for {
		r, err := t.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out[r.Ctx] = append(out[r.Ctx], r.Access)
	}
}
