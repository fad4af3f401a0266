package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"desc/internal/link"
	"desc/internal/serve"
	"desc/internal/workload"
)

// quickProfiles is the quick experiment mode's benchmark set (one per
// behaviour family), whose generated blocks make up serve-mix traffic.
var quickProfiles = []string{"Art", "CG", "RayTrace", "Radix"}

// codecChoice is one data-plane geometry of the mix.
type codecChoice struct {
	scheme    string
	chunkBits int // 0 keeps the scheme's design point
}

// serveCodecs is the mix's codec set: DESC with zero skipping at 4- and
// 8-bit chunks, and the binary baseline.
var serveCodecs = []codecChoice{{"desc-zero", 4}, {"desc-zero", 8}, {"binary", 0}}

const (
	blocksPerRequest = 2048
	blockBytes       = 64
	// requestsPerClient covers every (codec, encode/decode 3:1,
	// profile) cell of the mix once.
	requestsPerClient = 3 * 4 * 4
)

// request is one prepared data-plane request and its expected outcome.
type request struct {
	decode bool
	codec  codecChoice
	path   string // URL path and query
	body   []byte
	want   link.Cost // offline replay of the same batch through link.New
}

// spec is the link.Spec the server builds for the request: the scheme's
// design point with the chunk override.
func (c codecChoice) spec() (link.Spec, error) {
	d, ok := link.Lookup(c.scheme)
	if !ok {
		return link.Spec{}, fmt.Errorf("unknown scheme %q", c.scheme)
	}
	spec := d.Traits.DesignSpec(c.scheme, blockBytes*8)
	if c.chunkBits != 0 {
		spec.ChunkBits = c.chunkBits
	}
	return spec, nil
}

// replay sends payload through a fresh link with spec and returns the
// cost totals; with decode it also checks the receiver recovers every
// block.
func replay(spec link.Spec, payload []byte, decode bool) (link.Cost, error) {
	l, err := link.New(spec)
	if err != nil {
		return link.Cost{}, err
	}
	var total link.Cost
	dec, _ := l.(link.Decoder)
	for off := 0; off < len(payload); off += blockBytes {
		block := payload[off : off+blockBytes]
		total.Add(l.Send(block))
		if decode && (dec == nil || !bytes.Equal(dec.LastDecoded(), block)) {
			return total, fmt.Errorf("offline %s replay does not round-trip block %d", spec.Scheme, off/blockBytes)
		}
	}
	return total, nil
}

// buildTraffic makes each client's fixed request sequence from seed.
// Every client sends the same mix — each codec of serveCodecs with
// encode and decode 3:1, each quick profile equally often — so seeds
// vary the data and the order, not the proportions a throughput depends
// on. A request carries 2048 blocks of one profile's generated data at
// seeded block addresses.
func buildTraffic(seed int64, clients int) ([][]*request, error) {
	gens := make([]*workload.Generator, len(quickProfiles))
	for i, name := range quickProfiles {
		prof, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", name)
		}
		gens[i] = workload.NewGenerator(prof, seed)
	}
	traffic := make([][]*request, clients)
	for c := range traffic {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		for i := 0; i < requestsPerClient; i++ {
			// i cycles through codec, then encode/decode 3:1, then
			// profile; the shuffle below sets the order.
			rq := &request{decode: (i/len(serveCodecs))%4 == 3, codec: serveCodecs[i%len(serveCodecs)]}
			gen := gens[(i/(4*len(serveCodecs)))%len(gens)]
			rq.body = make([]byte, blocksPerRequest*blockBytes)
			for off := 0; off < len(rq.body); off += blockBytes {
				gen.FillBlockData(uint64(rng.Int63n(1<<24))*blockBytes, rq.body[off:off+blockBytes])
			}
			spec, err := rq.codec.spec()
			if err != nil {
				return nil, err
			}
			if rq.want, err = replay(spec, rq.body, rq.decode); err != nil {
				return nil, err
			}
			route := "/v1/encode"
			if rq.decode {
				route = "/v1/decode"
			}
			rq.path = route + "?scheme=" + rq.codec.scheme
			if rq.codec.chunkBits != 0 {
				rq.path += "&chunk_bits=" + strconv.Itoa(rq.codec.chunkBits)
			}
			traffic[c] = append(traffic[c], rq)
		}
		rng.Shuffle(len(traffic[c]), func(i, j int) { traffic[c][i], traffic[c][j] = traffic[c][j], traffic[c][i] })
	}
	return traffic, nil
}

// chunkStats returns the fraction of 4-bit chunks that are zero and the
// fraction equal to the chunk at the same position of the previous block
// in the batch: what DESC's zero and last-value skipping exploit.
func chunkStats(batches [][]byte) (zeroFrac, lastFrac float64) {
	var zeros, matches, chunks, pairs int
	for _, b := range batches {
		for i, v := range b {
			for _, nib := range [2]byte{v & 0xF, v >> 4} {
				if nib == 0 {
					zeros++
				}
			}
			chunks += 2
			if i >= blockBytes {
				p := b[i-blockBytes]
				if v&0xF == p&0xF {
					matches++
				}
				if v>>4 == p>>4 {
					matches++
				}
				pairs += 2
			}
		}
	}
	return float64(zeros) / float64(chunks), float64(matches) / float64(pairs)
}

// logTrafficShape reports the traffic's chunk statistics beside those of
// uniformly random bytes of the same volume.
func logTrafficShape(cfg *config, traffic [][]*request) {
	var gen, rnd [][]byte
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, seq := range traffic {
		for _, rq := range seq {
			gen = append(gen, rq.body)
			r := make([]byte, len(rq.body))
			rng.Read(r)
			rnd = append(rnd, r)
		}
	}
	gz, gl := chunkStats(gen)
	rz, rl := chunkStats(rnd)
	cfg.logf("traffic: zero-chunk %.4f, last-value-match %.4f (uniform random bytes: %.4f, %.4f)", gz, gl, rz, rl)
}

// server is a descserve handler on a loopback listener.
type server struct {
	srv  *serve.Server
	base string
	hs   *http.Server
	done chan error
}

// startServer serves h (srv's handler, possibly wrapped) on 127.0.0.1.
func startServer(srv *serve.Server, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// newClient is a keep-alive client with up to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// dataResponse is the part of descserve's JSON data-plane response the
// check reads.
type dataResponse struct {
	Blocks int `json:"blocks"`
	Total  struct {
		Cycles       int64  `json:"cycles"`
		DataFlips    uint64 `json:"data_flips"`
		ControlFlips uint64 `json:"control_flips"`
		SyncFlips    uint64 `json:"sync_flips"`
	} `json:"total"`
}

// send posts rq and checks the response: encode totals must equal the
// offline replay, decode must carry the replay's totals and return the
// request's blocks unchanged. buf is the client's reusable body buffer.
func send(ctx context.Context, client *http.Client, base string, rq *request, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", rq.path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	var got link.Cost
	if rq.decode {
		h := resp.Header
		for _, f := range []struct {
			name string
			dst  *uint64
		}{{"X-Desc-Data-Flips", &got.Flips.Data}, {"X-Desc-Control-Flips", &got.Flips.Control}, {"X-Desc-Sync-Flips", &got.Flips.Sync}} {
			if *f.dst, err = strconv.ParseUint(h.Get(f.name), 10, 64); err != nil {
				return fmt.Errorf("%s: header %s: %v", rq.path, f.name, err)
			}
		}
		if got.Cycles, err = strconv.ParseInt(h.Get("X-Desc-Cycles"), 10, 64); err != nil {
			return fmt.Errorf("%s: header X-Desc-Cycles: %v", rq.path, err)
		}
		if !bytes.Equal(buf.Bytes(), rq.body) {
			return fmt.Errorf("%s: decoded payload differs from the request", rq.path)
		}
	} else {
		var dr dataResponse
		if err := json.Unmarshal(buf.Bytes(), &dr); err != nil {
			return fmt.Errorf("%s: %v", rq.path, err)
		}
		if dr.Blocks != blocksPerRequest {
			return fmt.Errorf("%s: %d blocks, want %d", rq.path, dr.Blocks, blocksPerRequest)
		}
		got.Cycles = dr.Total.Cycles
		got.Flips = link.FlipCount{Data: dr.Total.DataFlips, Control: dr.Total.ControlFlips, Sync: dr.Total.SyncFlips}
	}
	if got != rq.want {
		return fmt.Errorf("%s: totals %+v, offline replay %+v", rq.path, got, rq.want)
	}
	return nil
}

// sample is one closed-loop request.
type sample struct {
	end   time.Duration // completion, from the start of measurement
	latUS float64
	ok    bool
}

// clientStats is one client's closed-loop record.
type clientStats struct {
	samples  []sample
	firstErr error
}

// runServeMix drives descserve's data plane from cfg.jobs keep-alive
// clients in a closed loop, each cycling through its fixed request
// sequence until the measured time is up.
func runServeMix(cfg *config) (*result, error) {
	traffic, setupS, err := timeSetup(setupReps, func() ([][]*request, error) {
		return buildTraffic(cfg.seed, cfg.jobs)
	})
	if err != nil {
		return nil, err
	}
	logTrafficShape(cfg, traffic)
	start := time.Now()
	srv := serve.New(serve.Config{})
	s, err := startServer(srv, srv.Handler())
	if err != nil {
		return nil, err
	}
	defer s.stop()
	client := newClient(cfg.jobs)
	defer client.CloseIdleConnections()
	// Warm-up: one pass over each client's first few requests fills the
	// codec pools and opens the connections.
	var buf bytes.Buffer
	ctx := context.Background()
	for _, seq := range traffic {
		for _, rq := range seq[:4] {
			if err := send(ctx, client, s.base, rq, &buf); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	setupS += time.Since(start).Seconds()

	mem := startMemPhase()
	stats := make([]clientStats, len(traffic))
	measureStart := time.Now()
	deadline := measureStart.Add(cfg.seconds)
	var wg sync.WaitGroup
	for c := range traffic {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			var buf bytes.Buffer
			for i := 0; time.Now().Before(deadline); i++ {
				rq := traffic[c][i%len(traffic[c])]
				t0 := time.Now()
				err := send(ctx, client, s.base, rq, &buf)
				t1 := time.Now()
				st.samples = append(st.samples, sample{end: t1.Sub(measureStart), latUS: float64(t1.Sub(t0).Nanoseconds()) / 1e3, ok: err == nil})
				if err != nil && st.firstErr == nil {
					st.firstErr = err
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(measureStart).Seconds()
	rss, allocMB := mem.end()

	// Throughput and tail latency are medians over the run's whole
	// one-second windows, so a burst of interference from outside the
	// benchmark moves one window, not the run's figure. A failed request
	// completes no blocks but its latency counts.
	res := &result{}
	windows := int(cfg.seconds / time.Second)
	winBlocks := make([]float64, windows)
	winLat := make([][]float64, windows)
	var lat []float64
	for _, st := range stats {
		if st.firstErr != nil {
			cfg.logf("output check: %v", st.firstErr)
		}
		for _, sm := range st.samples {
			lat = append(lat, sm.latUS)
			res.Attempted++
			if !sm.ok {
				res.Failed++
			}
			if w := int(sm.end / time.Second); w < windows {
				winLat[w] = append(winLat[w], sm.latUS)
				if sm.ok {
					winBlocks[w] += blocksPerRequest
				}
			}
		}
	}
	// The tail is p90, as on sweep-cold. p99 and beyond fall on requests
	// that meet a garbage collection or a descheduled vCPU, and their
	// level moved by up to half from run to run of the same code.
	var winP90 []float64
	for _, l := range winLat {
		winP90 = append(winP90, quantile(l, 0.9))
	}
	cfg.logf("serve-mix: %d clients, %d requests in %.3g s, blocks_per_s p50 over %d windows=%.6g",
		len(traffic), res.Attempted, elapsed, windows, quantile(winBlocks, 0.5))
	p50, p90 := latencyReport(cfg, "req_us", lat, 0.9, "us")
	cfg.logf("req_us: whole-run p99=%.4g us", quantile(lat, 0.99))
	winTail := quantile(winP90, 0.5)
	cfg.logf("req_us: p90 per window, median over %d windows of about %d requests: %.4g us (whole run %.4g us)",
		windows, len(lat)/max(windows, 1), winTail, p90)
	res.Metrics = endToEnd(setupS, quantile(winBlocks, 0.5), p50/1e3, winTail/1e3, rss, allocMB/float64(res.Attempted))
	return res, nil
}

// tracePasses is how many timed passes over every client's request
// sequence the traced serve-mix run makes, untraced and traced.
const tracePasses = 10

// handlerTimer wraps descserve's handler from the benchmark's side and
// hands each request's handler time to the waiting client.
type handlerTimer struct {
	h    http.Handler
	took chan time.Duration
}

func (t handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.took <- time.Since(start)
}

// traceServeMix is serve-mix's traced run: on one goroutine and one
// connection, every request of the mix is sent untraced and then
// through a handler timer, and each batch is replayed offline through
// link.New to split the handler's time into codec and HTTP work.
func traceServeMix(cfg *config) (*result, error) {
	traffic, err := buildTraffic(cfg.seed, cfg.jobs)
	if err != nil {
		return nil, err
	}
	logTrafficShape(cfg, traffic)
	var all []*request
	for _, seq := range traffic {
		all = append(all, seq...)
	}
	ctx := context.Background()
	res := &result{}
	var buf bytes.Buffer

	// pass sends every request once; timed passes alternate between an
	// untraced server and one behind the handler timer, after an untimed
	// warm-up pass on each that fills the codec pools and opens the
	// connections.
	pass := func(client *http.Client, base string, took chan time.Duration, timed bool) (clientNS int64, handlerUS []float64) {
		for _, rq := range all {
			t0 := time.Now()
			serr := send(ctx, client, base, rq, &buf)
			d := time.Since(t0).Nanoseconds()
			var h time.Duration
			if took != nil {
				select {
				case h = <-took:
				case <-time.After(time.Minute):
					// The request never reached the handler; send
					// has already returned its error.
				}
			}
			if !timed {
				continue
			}
			clientNS += d
			if took != nil {
				handlerUS = append(handlerUS, float64(h.Nanoseconds())/1e3)
			}
			res.Attempted++
			if serr != nil {
				res.Failed++
				cfg.logf("output check: %v", serr)
			}
		}
		return clientNS, handlerUS
	}
	plain := serve.New(serve.Config{})
	ps, err := startServer(plain, plain.Handler())
	if err != nil {
		return nil, err
	}
	defer ps.stop()
	srv := serve.New(serve.Config{})
	took := make(chan time.Duration, 1)
	ts, err := startServer(srv, handlerTimer{h: srv.Handler(), took: took})
	if err != nil {
		return nil, err
	}
	defer ts.stop()
	pc, tc := newClient(1), newClient(1)
	defer pc.CloseIdleConnections()
	defer tc.CloseIdleConnections()
	pass(pc, ps.base, nil, false)
	pass(tc, ts.base, took, false)
	before := counter(srv.Registry(), "serve/http/encode/requests") + counter(srv.Registry(), "serve/http/decode/requests")
	var untracedNS, tracedNS int64
	var handlerUS []float64
	for p := 0; p < tracePasses; p++ {
		u, _ := pass(pc, ps.base, nil, true)
		t, h := pass(tc, ts.base, took, true)
		untracedNS += u
		tracedNS += t
		handlerUS = append(handlerUS, h...)
	}
	requests := counter(srv.Registry(), "serve/http/encode/requests") + counter(srv.Registry(), "serve/http/decode/requests") - before

	// Offline codec replay of the same batches through one reused link
	// per geometry, as the server's pools reuse them: Send alone, then
	// Send plus the receiver-view copy for decode requests.
	links := map[codecChoice]link.Link{}
	for _, rq := range all {
		if links[rq.codec] != nil {
			continue
		}
		spec, err := rq.codec.spec()
		if err != nil {
			return nil, err
		}
		if links[rq.codec], err = link.New(spec); err != nil {
			return nil, err
		}
	}
	sendNS, recvNS, blocks := map[string]int64{}, map[string]int64{}, map[string]int64{}
	scratch := make([]byte, blocksPerRequest*blockBytes)
	for p := 0; p < tracePasses; p++ {
		for _, rq := range all {
			l := links[rq.codec]
			scheme := rq.codec.scheme
			l.Reset()
			t0 := time.Now()
			for off := 0; off < len(rq.body); off += blockBytes {
				l.Send(rq.body[off : off+blockBytes])
			}
			send := time.Since(t0).Nanoseconds()
			sendNS[scheme] += send
			blocks[scheme] += blocksPerRequest
			if rq.decode {
				l.Reset()
				dec := l.(link.Decoder)
				t0 = time.Now()
				for off := 0; off < len(rq.body); off += blockBytes {
					l.Send(rq.body[off : off+blockBytes])
					copy(scratch[off:off+blockBytes], dec.LastDecoded())
				}
				recvNS[scheme] += time.Since(t0).Nanoseconds() - send
			}
		}
	}
	var handlerSum, codecNS float64
	for _, us := range handlerUS {
		handlerSum += us * 1e3
	}
	for s := range sendNS {
		codecNS += float64(sendNS[s] + recvNS[s])
	}
	reqs := float64(len(handlerUS))
	v := map[string]float64{
		"serve.requests":        requests,
		"serve.handler_us_p50":  quantile(handlerUS, 0.5),
		"serve.codec_share":     ratio(codecNS, handlerSum),
		"serve.client_wait_us":  (float64(tracedNS) - handlerSum) / reqs / 1e3,
		"trace.overhead_ns":     float64(tracedNS - untracedNS),
		"trace.unattributed_ns": float64(tracedNS) - handlerSum,
	}
	for s := range sendNS {
		v["link.send_ns."+s] = float64(sendNS[s])
		v["link.recv_ns."+s] = float64(recvNS[s])
		v["link.blocks."+s] = float64(blocks[s])
	}
	cfg.logf("serve-mix traced: %d requests on one connection, untraced %.4g s, traced %.4g s; shares of the traced client time:",
		len(handlerUS), float64(untracedNS)/1e9, float64(tracedNS)/1e9)
	cfg.logf("  %-14s %6.1f%%", "codecs (link)", 100*codecNS/float64(tracedNS))
	cfg.logf("  %-14s %6.1f%%", "serve (self)", 100*(handlerSum-codecNS)/float64(tracedNS))
	cfg.logf("  %-14s %6.1f%%", "client+socket", 100*(float64(tracedNS)-handlerSum)/float64(tracedNS))
	res.Metrics = perLayer(v)
	return res, nil
}
