package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repose"
	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/serve"
)

// Offered load of the gateway workload: fixed constants, never derived
// at run time. No measured traffic of a REPOSE gateway backs them; they
// are choices. The rate and write interval keep one HTTP sender per CPU
// mostly idle. Every write empties the answer cache, and at this skew
// about 40% of answers then come from the engine (about 100 req/s on a
// 2-CPU host), while the most popular query is about a fifth of reads.
const (
	readRate  = 240.0 // HTTP requests per second, Poisson arrivals
	writeRate = 0.5   // mutations per second, evenly spaced
	poolSize  = 8192  // distinct queries: 2× the default 4096-entry cache
	zipfS     = 1.2   // Zipf exponent of query popularity
)

// gatewayTdriveMixed is the gateway-tdrive-mixed workload: the T-drive
// stand-in at 1/8 scale with a quarter held out, indexed durably on
// local disk (pointer layout) behind a default serve.Config gateway.
// An open loop sends Poisson reads (90% /search, 10% /radius, Zipf
// popularity over poolSize distinct queries) while one writer sends
// open-loop Insert/Delete/Upsert calls with auto-compaction.
// query_p50_ms is the engine-answered /search requests' latency, as the
// gateway's own "cached" flag tells them apart; http_* cover every
// request, mostly cache hits. After the load the gateway's answers are
// checked against an oracle that replays the acknowledged writes, the
// index is closed and recovered with OpenDurable (timed), and the check
// repeats on the recovered index.
func gatewayTdriveMixed(r *run) error {
	spec, err := dataset.ByName("T-drive", 1.0/8)
	if err != nil {
		return err
	}
	in, err := r.makeInputs("T-drive", 1.0/8, spec.Cardinality/4, repose.Options{Measure: repose.Hausdorff, Layout: repose.LayoutPointer})
	if err != nil {
		return err
	}
	if len(in.held) < poolSize+1024 {
		return fmt.Errorf("hold-out of %d trips leaves no insert stream", len(in.held))
	}
	pool, stream := in.held[:poolSize], in.held[poolSize:]
	bodies := make([][2][]byte, len(pool)) // search, radius request bodies
	for i, q := range pool {
		if bodies[i], err = requestBodies(q); err != nil {
			return err
		}
	}

	var g *gateway
	n := 0
	setup, heap, err := setups(setupRuns, func(first bool) (func(), error) {
		n++
		x, err := startGateway(in, filepath.Join(r.tmp, fmt.Sprintf("durable-%d", n)), bodies[0][0])
		if err != nil {
			return nil, err
		}
		if first {
			g = x
		}
		return func() { x.stop() }, nil
	})
	if err != nil {
		return err
	}
	defer g.stop()
	r.set("setup_s", setup.Seconds())
	r.set("heap_mb", heap)

	w := newWriter(g.idx, in.indexed, stream, r.seed)
	var base, traced gatewayLoad
	dur := r.dur
	if !r.traced {
		if base, err = r.gatewayPhase(g, w, pool, bodies, dur, nil, 1); err != nil {
			return err
		}
	} else {
		tr := newTracer()
		win := r.dur / (2 * tracePairs)
		dur = win * tracePairs
		served := map[string]float64{} // /metrics deltas over the traced windows
		var diffs []float64
		for p := 0; p < tracePairs; p++ {
			var off, on gatewayLoad
			for _, traceOn := range pairOrder(p) {
				salt := int64(10 + p) // the same schedule in both windows
				if !traceOn {
					if off, err = r.gatewayPhase(g, w, pool, bodies, win, nil, salt); err != nil {
						return err
					}
					continue
				}
				g.be.tr.Store(tr)
				before, err := g.metrics()
				if err != nil {
					return err
				}
				if on, err = r.gatewayPhase(g, w, pool, bodies, win, tr, salt); err != nil {
					return err
				}
				after, err := g.metrics()
				if err != nil {
					return err
				}
				g.be.tr.Store(nil)
				for key, v := range after {
					served[key] += v - before[key]
				}
			}
			diffs = append(diffs, ms(windowPct(on.miss, win, 0.5))-ms(windowPct(off.miss, win, 0.5)))
			base.merge(off, time.Duration(p)*win)
			traced.merge(on, time.Duration(p)*win)
		}
		r.set("trace.overhead_ms", median(diffs))
		r.serveMetrics(served, g.be, traced)
		g.be.clusters.report(r, false)
		if err := r.finishTrace(tr); err != nil {
			return err
		}
	}
	r.set("query_p50_ms", ms(windowPct(base.miss, dur, 0.5)))
	r.set("query_p99_ms", ms(windowPct(base.miss, dur, 0.99)))
	r.set("qps", windowRate(base.all, dur))
	r.set("http_p50_ms", ms(windowPct(base.all, dur, 0.5)))
	r.set("http_p99_ms", ms(windowPct(base.all, dur, 0.99)))
	r.set("http_rps", windowRate(base.all, dur))
	r.set("http_miss_rps", windowRate(base.uncached, dur))
	r.set("write_p50_ms", ms(pct(base.writes, 0.5)))
	r.set("write_p99_ms", ms(pct(base.writes, 0.99)))
	r.set("loadgen.late_ms_p99", ms(pct(base.late, 0.99)))
	r.set("loadgen.sent", float64(base.sent))
	r.set("loadgen.succeeded", float64(base.ok))
	r.set("loadgen.failed", float64(base.failed))
	r.set("loadgen.refused", float64(base.refused))
	fmt.Printf("load: %d requests sent, %d succeeded, %d failed, %d refused, late p50 %.3f ms p99 %.3f ms; %d writes (%d failed) in %.2fs (open loop, %d senders)\n",
		base.sent, base.ok, base.failed, base.refused, ms(pct(base.late, 0.5)), ms(pct(base.late, 0.99)), len(base.writes), base.writeFailed, base.elapsed.Seconds(), senders())
	fmt.Printf("cache: %.3f of answers from the cache, %.1f engine-answered req/s, %d engine-answered /search\n",
		1-ratio(float64(len(base.uncached)), float64(len(base.all))), windowRate(base.uncached, dur), len(base.miss))

	// Answers after the load, against the acknowledged writes.
	rng := rand.New(rand.NewSource(r.seed*31 + 5))
	var picks []int
	for i := 0; i < 20; i++ {
		picks = append(picks, rng.Intn(len(pool)))
	}
	checks := r.httpChecks(g, pool, bodies, picks)
	live := w.set.Slice()
	r.verify(in.opts.Measure, in.params, live, checks)

	if r.traced {
		if err := r.storageProbe(w, g.dir); err != nil {
			return err
		}
		if err := r.probeLayers(g.idx, in); err != nil {
			return err
		}
		live = w.set.Slice()
	}

	// Recovery: close everything, reopen from disk, check again.
	dir := g.dir
	g.stop()
	t0 := time.Now()
	rec, err := repose.OpenDurable(dir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	r.set("recover_s", time.Since(t0).Seconds())
	checks = checks[:0]
	ctx := context.Background()
	for i, p := range picks {
		q := pool[p]
		kind := opSearch
		var got []repose.Result
		if i%5 == 4 {
			kind = opRadius
			got, err = rec.SearchRadius(ctx, q, radius)
		} else {
			got, err = rec.Search(ctx, q, k)
		}
		if err != nil {
			r.op(err)
			fmt.Printf("FAILED workload=%s seed=%d recovered %s: %v\n", r.workload, r.seed, kind, err)
			continue
		}
		checks = append(checks, check{kind: kind, op: -1, q: q, got: got})
	}
	r.verify(in.opts.Measure, in.params, live, checks)
	return nil
}

// senders is the number of HTTP client goroutines and connections of
// the open loop: one per CPU. The writer is one more goroutine, calling
// the index in-process.
func senders() int { return runtime.NumCPU() }

func requestBodies(q *geo.Trajectory) ([2][]byte, error) {
	pts := make([][2]float64, len(q.Points))
	for i, p := range q.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	s, err := json.Marshal(struct {
		Points [][2]float64 `json:"points"`
		K      int          `json:"k"`
	}{pts, k})
	if err != nil {
		return [2][]byte{}, err
	}
	rd, err := json.Marshal(struct {
		Points [][2]float64 `json:"points"`
		Radius float64      `json:"radius"`
	}{pts, radius})
	return [2][]byte{s, rd}, err
}

// gateway is a durable index behind the serve gateway on loopback HTTP.
type gateway struct {
	idx    *repose.Index
	be     *timingBackend
	gw     *serve.Server
	srv    *http.Server
	url    string
	dir    string
	client *http.Client
	served chan struct{}
	once   sync.Once
}

// startGateway is the workload's set-up: durable build, gateway start,
// and the first answered query.
func startGateway(in *inputs, dir string, firstBody []byte) (*gateway, error) {
	idx, err := repose.Build(in.indexed, in.opts, repose.WithDurableDir(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		idx.Close()
		return nil, err
	}
	g := &gateway{idx: idx, be: &timingBackend{Index: idx, links: newLinks()}, dir: dir, served: make(chan struct{})}
	g.gw = serve.New(g.be, serve.Config{})
	g.srv = &http.Server{Handler: g.gw.Handler()}
	g.url = "http://" + ln.Addr().String()
	n := senders()
	g.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	go func() {
		defer close(g.served)
		g.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	status, err := g.post("/search", firstBody, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first query: HTTP %d", status)
	}
	if err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// stop shuts the HTTP server and gateway down and closes the index; the
// durable directory stays for recovery. Idempotent.
func (g *gateway) stop() {
	g.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.srv.Shutdown(ctx)
		<-g.served
		g.gw.Shutdown(ctx)
		g.client.CloseIdleConnections()
		g.idx.Close()
	})
}

// post sends one request and returns its status, decoding a 200 body
// into out when out is non-nil.
func (g *gateway) post(path string, body []byte, out any) (int, error) {
	resp, err := g.client.Post(g.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// metrics reads the gateway's /metrics as a flat map from dotted key
// ("cache.hits") to value; only numbers are kept.
func (g *gateway) metrics() (map[string]float64, error) {
	resp, err := g.client.Get(g.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case float64:
			out[prefix] = x
		case map[string]any:
			for key, y := range x {
				walk(strings.TrimPrefix(prefix+"."+key, "."), y)
			}
		}
	}
	walk("", doc)
	return out, nil
}

// serveMetrics sets the serve.* metrics from the /metrics deltas d and
// the timing backend over the traced windows ld.
func (r *run) serveMetrics(d map[string]float64, be *timingBackend, ld gatewayLoad) {
	hits, misses := d["cache.hits"], d["cache.misses"]
	requests := d["requests_search"] + d["requests_radius"]
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("serve.backend_calls_per_request", ratio(float64(be.calls.Load()), float64(ld.sent)))
	r.set("serve.coalesce_ratio", ratio(d["coalesce.coalesced_requests"], requests))
	r.set("serve.batch_mean", ratio(d["coalesce.batched_queries"], d["coalesce.batches"]))
	r.set("serve.invalidations_per_write", ratio(d["cache.invalidations"], float64(len(ld.writes))))
	r.set("serve.evictions", d["cache.evictions"])
	lat := be.lat.snapshot()
	r.set("serve.backend_ms_p50", ms(pct(lat, 0.5)))
	r.set("serve.backend_ms_p99", ms(pct(lat, 0.99)))
	r.set("serve.rejected", d["rejected_rate_limit"]+d["rejected_queue_full"]+d["rejected_draining"])
}

// arrival is one scheduled read of the open loop.
type arrival struct {
	at     time.Duration // offset from the phase start
	radius bool
	q      int // pool index
}

// gatewayLoad is one open-loop phase's outcome. An operation a busy
// sender picked up after its scheduled time is timed from that time,
// so a stall also charges the operations queued behind it; late is how
// far behind schedule each request was sent.
type gatewayLoad struct {
	search          []timed // answered /search requests
	miss            []timed // answered /search requests the engine answered
	uncached        []timed // every answered request the engine answered
	all             []timed // every answered request
	late, writes    []time.Duration
	writeFailed     int
	sent, ok        int64
	failed, refused int64
	elapsed         time.Duration
}

// merge adds ld, a phase that started off into the merged phases, to a.
func (a *gatewayLoad) merge(ld gatewayLoad, off time.Duration) {
	shift := func(dst *[]timed, ts []timed) {
		for _, t := range ts {
			t.at += off
			*dst = append(*dst, t)
		}
	}
	shift(&a.search, ld.search)
	shift(&a.miss, ld.miss)
	shift(&a.uncached, ld.uncached)
	shift(&a.all, ld.all)
	a.late = append(a.late, ld.late...)
	a.writes = append(a.writes, ld.writes...)
	a.writeFailed += ld.writeFailed
	a.sent += ld.sent
	a.ok += ld.ok
	a.failed += ld.failed
	a.refused += ld.refused
	a.elapsed += ld.elapsed
}

// schedule draws Poisson arrival offsets at rate per second over dur.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// waitUntil sleeps until due when the sender is early, and returns the
// time an operation's latency counts from: due when the sender picked
// it up late — a stall of the system under test held the sender, and
// the wait counts — and the actual send time when the sender was free
// and slept, so the sleep's own overshoot is not charged.
func waitUntil(due time.Time) time.Time {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		return time.Now()
	}
	return due
}

// gatewayPhase runs the open loop for dur: senders() HTTP goroutines
// share the read schedule, and one writer runs the write schedule.
func (r *run) gatewayPhase(g *gateway, w *writer, pool []*geo.Trajectory, bodies [][2][]byte, dur time.Duration, tr *tracer, salt int64) (gatewayLoad, error) {
	rng := rand.New(rand.NewSource(r.seed*31 + salt))
	rank := rng.Perm(len(pool)) // popularity rank → pool query
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	var reads []arrival
	for _, at := range schedule(rng, readRate, dur) {
		reads = append(reads, arrival{at: at, radius: rng.Float64() < 0.1, q: rank[zipf.Uint64()]})
	}
	var writes []time.Duration
	for at := time.Duration(float64(time.Second) / writeRate); at < dur; at += time.Duration(float64(time.Second) / writeRate) {
		writes = append(writes, at)
	}

	var out gatewayLoad
	var mu sync.Mutex
	var next atomic.Int64
	var sent, ok, failed, refused atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var search, miss, uncached, all []timed
			var late []time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reads) {
					break
				}
				a := reads[i]
				due := start.Add(a.at)
				from := waitUntil(due)
				t0 := time.Now()
				late = append(late, t0.Sub(due))
				path, body := "/search", bodies[a.q][0]
				if a.radius {
					path, body = "/radius", bodies[a.q][1]
				}
				var id int64
				key := keyOf(pool[a.q].Points)
				if tr != nil {
					id = tr.newID()
					g.be.links.add(key, id)
				}
				var ans struct {
					Cached bool `json:"cached"`
				}
				status, err := g.post(path, body, &ans)
				t1 := time.Now()
				if tr != nil {
					g.be.links.remove(key, id)
					tr.record(id, 0, id, "http", t0, t1)
				}
				sent.Add(1)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: HTTP %d", path, status)
				}
				r.op(err)
				switch {
				case err == nil:
					ok.Add(1)
					done := timed{at: t1.Sub(start), lat: t1.Sub(from), n: 1}
					all = append(all, done)
					if !ans.Cached {
						uncached = append(uncached, done)
					}
					if !a.radius {
						search = append(search, done)
						if !ans.Cached {
							// Timed from its send: the engine-answered path
							// itself, without the queue a burst of misses
							// builds behind the senders.
							miss = append(miss, timed{at: done.at, lat: t1.Sub(t0), n: 1})
						}
					}
				case status == http.StatusTooManyRequests:
					refused.Add(1)
				default:
					if failed.Add(1) <= 3 {
						fmt.Printf("FAILED workload=%s seed=%d read=%d: %v\n", r.workload, r.seed, i, err)
					}
				}
			}
			mu.Lock()
			out.search = append(out.search, search...)
			out.miss = append(out.miss, miss...)
			out.uncached = append(out.uncached, uncached...)
			out.all = append(out.all, all...)
			out.late = append(out.late, late...)
			mu.Unlock()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, at := range writes {
			from := waitUntil(start.Add(at))
			t0 := time.Now()
			err := w.step()
			if tr != nil {
				id := tr.newID()
				tr.record(id, 0, id, "write", t0, time.Now())
			}
			r.op(err)
			if err != nil {
				out.writeFailed++
				fmt.Printf("FAILED workload=%s seed=%d write=%d: %v\n", r.workload, r.seed, i, err)
				continue
			}
			d := time.Since(from)
			mu.Lock()
			out.writes = append(out.writes, d)
			mu.Unlock()
		}
	}()
	wg.Wait()
	out.elapsed = max(time.Since(start), dur)
	out.sent, out.ok, out.failed, out.refused = sent.Load(), ok.Load(), failed.Load(), refused.Load()
	if out.ok == 0 {
		return out, errors.New("no read succeeded")
	}
	return out, nil
}

// answerJSON is the part of a gateway answer the checks read.
type answerJSON struct {
	Results []struct {
		ID       int     `json:"id"`
		Distance float64 `json:"distance"`
		Start    int     `json:"start"`
		End      int     `json:"end"`
	} `json:"results"`
}

// httpChecks asks the gateway each picked query twice — the second
// answer usually comes from the cache — and returns both for the
// oracle. Every fifth pick is a radius query.
func (r *run) httpChecks(g *gateway, pool []*geo.Trajectory, bodies [][2][]byte, picks []int) []check {
	var checks []check
	for i, p := range picks {
		kind, path, body := opSearch, "/search", bodies[p][0]
		if i%5 == 4 {
			kind, path, body = opRadius, "/radius", bodies[p][1]
		}
		for rep := 0; rep < 2; rep++ {
			var ans answerJSON
			status, err := g.post(path, body, &ans)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s: HTTP %d", path, status)
			}
			if err != nil {
				r.op(err)
				fmt.Printf("FAILED workload=%s seed=%d check %s: %v\n", r.workload, r.seed, kind, err)
				continue
			}
			got := make([]repose.Result, len(ans.Results))
			for j, it := range ans.Results {
				got[j] = repose.Result{ID: it.ID, Dist: it.Distance, Start: it.Start, End: it.End}
			}
			checks = append(checks, check{kind: kind, op: i*2 + rep, q: pool[p], got: got})
		}
	}
	return checks
}

// writer is the workload's single mutation client. It mirrors every
// acknowledged write into an oracle.Set.
type writer struct {
	idx    *repose.Index
	set    *oracle.Set
	stream []*geo.Trajectory // fresh trips for inserts and upserts
	next   int
	live   []int
	pos    map[int]int // id → index in live
	rng    *rand.Rand
}

func newWriter(idx *repose.Index, indexed, stream []*geo.Trajectory, seed int64) *writer {
	w := &writer{idx: idx, set: oracle.NewSet(indexed), stream: stream, pos: map[int]int{}, rng: rand.New(rand.NewSource(seed*31 + 4))}
	for _, tr := range indexed {
		w.addLive(tr.ID)
	}
	return w
}

func (w *writer) addLive(id int) {
	w.pos[id] = len(w.live)
	w.live = append(w.live, id)
}

func (w *writer) dropLive(id int) {
	i := w.pos[id]
	last := w.live[len(w.live)-1]
	w.live[i], w.pos[last] = last, i
	w.live = w.live[:len(w.live)-1]
	delete(w.pos, id)
}

func (w *writer) fresh() (*geo.Trajectory, error) {
	if w.next >= len(w.stream) {
		return nil, errors.New("insert stream exhausted")
	}
	tr := w.stream[w.next]
	w.next++
	return tr, nil
}

// step sends one mutation: half inserts of a fresh trip, a quarter
// deletes and a quarter upserts of a live id with a fresh trip's
// points.
func (w *writer) step() error {
	ctx := context.Background()
	compact := repose.WithAutoCompact(repose.DefaultCompactFraction)
	switch x := w.rng.Float64(); {
	case x < 0.5:
		tr, err := w.fresh()
		if err != nil {
			return err
		}
		if err := w.idx.Insert(ctx, []*geo.Trajectory{tr}, compact); err != nil {
			return fmt.Errorf("insert %d: %w", tr.ID, err)
		}
		w.set.Insert(tr)
		w.addLive(tr.ID)
	case x < 0.75:
		id := w.live[w.rng.Intn(len(w.live))]
		n, err := w.idx.Delete(ctx, []int{id}, compact)
		if err != nil {
			return fmt.Errorf("delete %d: %w", id, err)
		}
		if n != 1 {
			return fmt.Errorf("delete %d removed %d trips", id, n)
		}
		w.set.Delete(id)
		w.dropLive(id)
	default:
		src, err := w.fresh()
		if err != nil {
			return err
		}
		tr := &geo.Trajectory{ID: w.live[w.rng.Intn(len(w.live))], Points: src.Points}
		if err := w.idx.Upsert(ctx, []*geo.Trajectory{tr}, compact); err != nil {
			return fmt.Errorf("upsert %d: %w", tr.ID, err)
		}
		w.set.Insert(tr)
	}
	return nil
}

// storageProbe sends writes alone, with nothing else running, and
// reports the process's write bytes and write syscalls per
// acknowledged mutation from /proc/self/io, then the durable
// directory's size over the live trajectories' point bytes.
func (r *run) storageProbe(w *writer, dir string) error {
	const writes = 32
	w0, s0, err := procIO()
	if err != nil {
		r.note("storage probe skipped: %v", err)
		return nil
	}
	for i := 0; i < writes; i++ {
		err := w.step()
		r.op(err)
		if err != nil {
			return fmt.Errorf("storage probe: %w", err)
		}
	}
	w1, s1, err := procIO()
	if err != nil {
		return err
	}
	r.set("storage.wchar_per_write", float64(w1-w0)/writes)
	r.set("storage.syscw_per_write", float64(s1-s0)/writes)
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	live := 0
	for _, tr := range w.set.Slice() {
		live += 16 * len(tr.Points) // two float64 coordinates per point
	}
	r.set("storage.dir_bytes_per_live_byte", ratio(float64(size), float64(live)))
	return nil
}

// qkey identifies a query by its shape; the gateway decodes the points
// afresh from JSON, so pointer identity is lost but the values are not.
type qkey struct {
	n              int
	x0, y0, x1, y1 float64
}

func keyOf(pts []geo.Point) qkey {
	return qkey{len(pts), pts[0].X, pts[0].Y, pts[len(pts)-1].X, pts[len(pts)-1].Y}
}

// links maps each in-flight request's query to its http span, so the
// backend spans the gateway causes can name their parent: the gateway
// runs engine calls on its own context, which carries no request id.
type links struct {
	mu sync.Mutex
	m  map[qkey][]int64
}

func newLinks() *links { return &links{m: map[qkey][]int64{}} }

func (l *links) add(key qkey, id int64) {
	l.mu.Lock()
	l.m[key] = append(l.m[key], id)
	l.mu.Unlock()
}

func (l *links) remove(key qkey, id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := l.m[key]
	for i, x := range ids {
		if x == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(l.m, key)
	} else {
		l.m[key] = ids
	}
}

// first returns the oldest in-flight http span for key, 0 if none.
func (l *links) first(key qkey) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ids := l.m[key]; len(ids) > 0 {
		return ids[0]
	}
	return 0
}

// timingBackend is the serve.Backend the gateway calls: the index
// itself, with every query call timed and recorded as a serve.backend
// span around a cluster.* facade span while a tracer is installed.
type timingBackend struct {
	*repose.Index
	tr    atomic.Pointer[tracer]
	links *links
	calls atomic.Int64
	lat   latencies

	mu       sync.Mutex
	clusters clusterAgg
}

// traced runs call as one backend call for the request whose query is
// first, recording its spans and timing.
func (b *timingBackend) traced(tr *tracer, name string, first *repose.Trajectory, call func(rep *repose.QueryReport) error) error {
	parent := b.links.first(keyOf(first.Points))
	id, cid := tr.newID(), tr.newID()
	t0 := time.Now()
	var rep repose.QueryReport
	c0 := time.Now()
	err := call(&rep)
	c1 := time.Now()
	tr.record(cid, id, parent, name, c0, c1)
	tr.partitions(cid, parent, c0, rep.PartitionTimes)
	if name == "cluster.search" && err == nil {
		b.mu.Lock()
		b.clusters.add(rep)
		b.mu.Unlock()
	}
	t1 := time.Now()
	tr.record(id, parent, parent, "serve.backend", t0, t1)
	b.calls.Add(1)
	b.lat.add(t1.Sub(t0))
	return err
}

func (b *timingBackend) Search(ctx context.Context, q *repose.Trajectory, k int, opts ...repose.QueryOption) ([]repose.Result, error) {
	tr := b.tr.Load()
	if tr == nil {
		return b.Index.Search(ctx, q, k, opts...)
	}
	var res []repose.Result
	err := b.traced(tr, "cluster.search", q, func(rep *repose.QueryReport) (err error) {
		res, err = b.Index.Search(ctx, q, k, append(opts, repose.WithReport(rep))...)
		return err
	})
	return res, err
}

func (b *timingBackend) SearchRadius(ctx context.Context, q *repose.Trajectory, radius float64, opts ...repose.QueryOption) ([]repose.Result, error) {
	tr := b.tr.Load()
	if tr == nil {
		return b.Index.SearchRadius(ctx, q, radius, opts...)
	}
	var res []repose.Result
	err := b.traced(tr, "cluster.radius", q, func(rep *repose.QueryReport) (err error) {
		res, err = b.Index.SearchRadius(ctx, q, radius, append(opts, repose.WithReport(rep))...)
		return err
	})
	return res, err
}

func (b *timingBackend) SearchBatch(ctx context.Context, qs []*repose.Trajectory, k int, opts ...repose.QueryOption) ([][]repose.Result, error) {
	tr := b.tr.Load()
	if tr == nil || len(qs) == 0 {
		return b.Index.SearchBatch(ctx, qs, k, opts...)
	}
	var res [][]repose.Result
	err := b.traced(tr, "cluster.batch", qs[0], func(*repose.QueryReport) (err error) {
		res, err = b.Index.SearchBatch(ctx, qs, k, opts...)
		return err
	})
	return res, err
}
