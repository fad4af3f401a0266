package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"desc/internal/exp"
	"desc/internal/link"
	"desc/internal/stats"
)

// experimentRequest selects a registered experiment and the options to
// run it under. Seed/instr default through exp.Options.WithDefaults, so
// two clients spelling the defaults differently share one Runner.
type experimentRequest struct {
	// ID is a registered experiment id, e.g. "fig16" (GET
	// /v1/experiments lists them).
	ID string `json:"id"`
	// Quick selects reduced sweeps and instruction budgets.
	Quick bool `json:"quick"`
	// Seed is the workload seed (0 = default).
	Seed int64 `json:"seed"`
	// Instr is the per-context instruction budget (0 = default). A
	// hostile budget is bounded by the experiment deadline: the
	// simulators poll their context.
	Instr uint64 `json:"instr"`
}

// event is one newline-delimited JSON line of the experiment stream.
// planned's total counts the distinct runs in the experiment's plan, so
// a lone request on a fresh server sees exactly that many run_done
// events; runs an earlier request already cached send none. Progress
// events (planned, run_started, run_done) are hints whose arrival order
// follows the worker pool; because concurrent requests for the same
// experiment and options share one Runner (and its Fanout), a stream
// also carries run events triggered by its neighbors' overlapping
// demands, so run_started/run_done counts may exceed planned's total.
// The terminal result (or error) event is per-request and is the
// authoritative, deterministic payload.
type event struct {
	Event  string      `json:"event"` // planned | run_started | run_done | result | error
	Total  int         `json:"total,omitempty"`
	Spec   string      `json:"spec,omitempty"`
	Bench  string      `json:"bench,omitempty"`
	Status string      `json:"status,omitempty"`
	Error  string      `json:"error,omitempty"`
	Tables []tableJSON `json:"tables,omitempty"`
}

// tableJSON is one rendered result table: the exact markdown and CSV
// bytes a direct descbench run would write, so server results are
// byte-comparable to offline ones (TestServeExperimentsMatchDirect).
type tableJSON struct {
	Title    string   `json:"title"`
	Columns  []string `json:"columns"`
	Markdown string   `json:"markdown"`
	CSV      string   `json:"csv"`
}

// renderTables converts result tables to their wire form.
func renderTables(tables []*stats.Table) []tableJSON {
	out := make([]tableJSON, len(tables))
	for i, t := range tables {
		var md, csv bytes.Buffer
		// bytes.Buffer writes cannot fail.
		_ = t.WriteMarkdown(&md)
		_ = t.WriteCSV(&csv)
		out[i] = tableJSON{Title: t.Title, Columns: t.Columns, Markdown: md.String(), CSV: csv.String()}
	}
	return out
}

// streamObserver forwards a request's share of Runner lifecycle events
// to its chunked response. It implements exp.Observer and is invoked
// concurrently from the Runner's workers, so every write happens under
// its mutex — this (not the TTY-oriented internal/progress observer) is
// the server-side consumer of the Observer plumbing.
type streamObserver struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	flush http.Flusher // nil when the writer cannot flush
	// want filters broadcast events to the demands in this request's
	// experiment's plan. The filter scopes a stream to its own
	// experiment, not to its own request: two concurrent requests for
	// the same experiment and options share a Runner and plan the
	// same demand set, so each also sees run events the other's Run
	// triggered — documented on event (progress is a hint; the terminal
	// event is authoritative).
	want map[exp.Demand]bool
	// closed makes emit a no-op: set on the first network error (the
	// client is gone, the simulation finishes for the other subscribers)
	// and by close when the handler returns.
	closed bool
}

func newStreamObserver(w http.ResponseWriter, demands []exp.Demand) *streamObserver {
	want := make(map[exp.Demand]bool, len(demands))
	for _, d := range demands {
		want[d] = true
	}
	flush, _ := w.(http.Flusher)
	return &streamObserver{w: w, flush: flush, want: want}
}

// emit writes one NDJSON line and flushes it to the client.
func (o *streamObserver) emit(ev event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	data, err := json.Marshal(ev)
	if err == nil {
		data = append(data, '\n')
		_, err = o.w.Write(data)
	}
	if err != nil {
		o.closed = true
		return
	}
	if o.flush != nil {
		o.flush.Flush()
	}
}

// close retires the ResponseWriter: any later emit is a no-op, and an
// emit already holding the mutex finishes its write before close
// returns. The handler defers it so no broadcast can touch w after the
// handler returns (net/http forbids that) even independently of the
// Fanout's blocking-unsubscribe guarantee.
func (o *streamObserver) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
}

// ExecutePlanned is ignored: a shared Runner's Execute batches mix
// requests, so the handler emits its own planned event scoped to this
// request's demand set instead.
func (o *streamObserver) ExecutePlanned(int) {}

// RunStarted streams a run start for this request's demands.
func (o *streamObserver) RunStarted(d exp.Demand) {
	if !o.want[d] {
		return
	}
	o.emit(event{Event: "run_started", Spec: d.Spec.String(), Bench: d.Bench})
}

// RunDone streams a run completion for this request's demands.
func (o *streamObserver) RunDone(d exp.Demand, err error) {
	if !o.want[d] {
		return
	}
	ev := event{Event: "run_done", Spec: d.Spec.String(), Bench: d.Bench, Status: "ok"}
	if err != nil {
		ev.Status = "failed"
		ev.Error = err.Error()
	}
	o.emit(ev)
}

// handleExperimentRun executes one experiment on the shared Runner for
// the requested options, streaming progress and the rendered tables as
// NDJSON. Once the stream has begun, failures travel in-band as a
// terminal error event (the status line is already on the wire).
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) error {
	var req experimentRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	e, ok := exp.ByID(req.ID)
	if !ok {
		return errf(http.StatusNotFound,
			"serve: unknown experiment %q (GET /v1/experiments lists ids)", req.ID)
	}
	ent, err := s.runnerFor(exp.Options{Quick: req.Quick, Seed: req.Seed, InstrPerContext: req.Instr})
	if err != nil {
		return errf(http.StatusBadRequest, "serve: %v", err)
	}

	var demands []exp.Demand
	if e.Demands != nil {
		demands = e.Demands(ent.runner.Options())
	}
	stream := newStreamObserver(w, demands)
	unsubscribe := ent.fanout.Subscribe(stream)
	// LIFO: unsubscribe drains in-flight broadcasts first, then close
	// retires the writer — after both, nothing can write to w.
	defer stream.close()
	defer unsubscribe()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	stream.emit(event{Event: "planned", Total: len(demands)})

	s.reg.Counter("serve/experiments/" + req.ID + "/requests").Inc()
	tables, runErr := ent.runner.Run(r.Context(), e)
	if runErr != nil {
		s.reg.Counter("serve/experiments/failed").Inc()
		stream.emit(event{Event: "error", Error: runErr.Error()})
		return nil
	}
	stream.emit(event{Event: "result", Tables: renderTables(tables)})
	return nil
}

// experimentInfo is one row of the experiment listing.
type experimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// handleExperimentList serves the registered experiment ids in figure
// order.
func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) error {
	all := exp.All()
	out := make([]experimentInfo, len(all))
	for i, e := range all {
		out[i] = experimentInfo{ID: e.ID, Title: e.Title}
	}
	return writeJSON(w, out)
}

// schemeInfo is one row of the scheme listing: the descriptor's
// identity and traits, the same roster descbench -list-schemes prints.
type schemeInfo struct {
	Name              string `json:"name"`
	Label             string `json:"label"`
	CodecCycles       int    `json:"codec_cycles"`
	History           string `json:"history"`
	DESCInterface     bool   `json:"desc_interface"`
	UsesChunkBits     bool   `json:"uses_chunk_bits"`
	UsesSegmentBits   bool   `json:"uses_segment_bits"`
	DesignWires       int    `json:"design_wires"`
	DesignChunkBits   int    `json:"design_chunk_bits,omitempty"`
	DesignSegmentBits int    `json:"design_segment_bits,omitempty"`
}

// handleSchemes serves the scheme registry.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) error {
	ds := link.Descriptors()
	out := make([]schemeInfo, len(ds))
	for i, d := range ds {
		out[i] = schemeInfo{
			Name:              d.Name,
			Label:             d.Label,
			CodecCycles:       d.Traits.CodecCycles,
			History:           d.Traits.History.String(),
			DESCInterface:     d.Traits.DESCInterface,
			UsesChunkBits:     d.Traits.UsesChunkBits,
			UsesSegmentBits:   d.Traits.UsesSegmentBits,
			DesignWires:       d.Traits.DesignWires,
			DesignChunkBits:   d.Traits.DesignChunkBits,
			DesignSegmentBits: d.Traits.DesignSegmentBits,
		}
	}
	return writeJSON(w, out)
}
