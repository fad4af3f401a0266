package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"desc/internal/exp"
)

// runDirect executes the experiment on a private Runner, rendering the
// tables exactly as the control plane does — the offline reference the
// served results must reproduce byte for byte.
func runDirect(t *testing.T, opt exp.Options, id string) []tableJSON {
	t.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	r, err := exp.NewRunner(opt)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	tables, err := r.Run(context.Background(), e)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	return renderTables(tables)
}

// resultTables extracts the terminal result event's tables from one
// NDJSON experiment stream.
func resultTables(t *testing.T, stream []byte) []tableJSON {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		planned bool
		tables  []tableJSON
	)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line does not parse: %v; line: %q", err, sc.Text())
		}
		switch ev.Event {
		case "planned":
			planned = true
		case "error":
			t.Fatalf("stream carries an error event: %s", ev.Error)
		case "result":
			tables = ev.Tables
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan stream: %v", err)
	}
	if !planned {
		t.Fatal("stream has no planned event")
	}
	if tables == nil {
		t.Fatal("stream has no result event")
	}
	return tables
}

// TestServeExperimentsMatchDirect is the control-plane non-perturbation
// guarantee (the serve-side sibling of TestRunnerMetricsNonPerturbing):
// results fetched through the daemon — with its observers, fanout,
// shared Runner, and streaming — are byte-identical to a direct
// exp.Runner run, for one client and for concurrent identical clients.
func TestServeExperimentsMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	opt := exp.Options{Quick: true, Seed: 1, InstrPerContext: 400}
	want := runDirect(t, opt, "ext01")

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"id":"ext01","quick":true,"seed":1,"instr":400}`

	fetch := func() ([]tableJSON, error) {
		resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		return resultTables(t, buf.Bytes()), nil
	}

	assertIdentical := func(got []tableJSON, label string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d tables, direct run has %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].Markdown != want[i].Markdown {
				t.Errorf("%s: table %d markdown differs from the direct run:\nserved:\n%s\ndirect:\n%s",
					label, i, got[i].Markdown, want[i].Markdown)
			}
			if got[i].CSV != want[i].CSV {
				t.Errorf("%s: table %d CSV differs from the direct run", label, i)
			}
		}
	}

	got, err := fetch()
	if err != nil {
		t.Fatalf("single client: %v", err)
	}
	assertIdentical(got, "single client")

	// Concurrent identical clients share one server-side Runner (and its
	// run cache); each stream must still carry the exact direct-run bytes.
	const clients = 4
	results := make([][]tableJSON, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fetch()
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent client %d: %v", i, errs[i])
		}
		assertIdentical(results[i], fmt.Sprintf("concurrent client %d", i))
	}
}

// TestExperimentPlannedMatchesRuns: on a fresh server, a lone request's
// planned total is the number of distinct runs its experiment
// simulates, so it equals the run_done events that follow. fig14's
// LSTP-LSTP point is the binary baseline itself, and ext-zoo's registry
// roster includes binary too: a plan that counted such a run twice would
// promise more runs than the stream delivers.
func TestExperimentPlannedMatchesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	for _, id := range []string{"fig14", "ext-zoo"} {
		s := New(Config{})
		body := []byte(fmt.Sprintf(`{"id":%q,"quick":true,"seed":1,"instr":400}`, id))
		rec := do(t, s, http.MethodPost, "/v1/experiments", "application/json", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d; body: %s", id, rec.Code, rec.Body.String())
		}
		planned, done := -1, 0
		sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%s: stream line does not parse: %v; line: %q", id, err, sc.Text())
			}
			switch ev.Event {
			case "planned":
				planned = ev.Total
			case "run_done":
				done++
			case "error":
				t.Fatalf("%s: stream carries an error event: %s", id, ev.Error)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: scan stream: %v", id, err)
		}
		if planned <= 0 || planned != done {
			t.Errorf("%s: planned total %d, but the stream sent %d run_done events", id, planned, done)
		}
	}
}
