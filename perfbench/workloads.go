package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/parallel"
	"paratime/internal/server"
	"paratime/internal/spec"
	"paratime/internal/sweep"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// newBench generates the workload's inputs from the seed and returns it
// ready for set-up.
func newBench(cfg config, seed int64, seconds int, tight tightness) (bench, error) {
	parallel.SetDefault(cfg.Parallelism)
	want, err := digests()
	if err != nil {
		return nil, err
	}
	switch cfg.Workload {
	case "corpus":
		return newScenarioBench(cfg, seed, func(int64) ([]byte, error) { return corpusDoc() }, tight, want["corpus"])
	case "large":
		return newScenarioBench(cfg, seed, largeDoc, nil, want["large"])
	case "sweep":
		doc, err := sweepDoc(seed)
		if err != nil {
			return nil, err
		}
		return &sweepBench{cfg: cfg, doc: doc, want: want["sweep"]}, nil
	case "serve":
		// The stream covers the warm-up and the measured window, with
		// slack for the open loop's rounding.
		n := int(cfg.Rate*float64(seconds)*1.2) + 16
		in, err := serveStream(seed, n)
		if err != nil {
			return nil, err
		}
		return newServeBench(cfg, in, want["serve"]), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// referenceDigest runs one op of a workload at refSeed and digests its
// output, the value digests.json records.
func referenceDigest(name string) (string, error) {
	cfg := configs[name]
	parallel.SetDefault(cfg.Parallelism)
	ctx := context.Background()
	switch name {
	case "corpus":
		return scenarioDigest(ctx, cfg, func(int64) ([]byte, error) { return corpusDoc() })
	case "large":
		return scenarioDigest(ctx, cfg, largeDoc)
	case "sweep":
		return sweepDigest(ctx, cfg)
	case "serve":
		return serveDigest(ctx, cfg)
	}
	return "", fmt.Errorf("unknown workload %q", name)
}

// --- corpus and large: scenarios through spec.Run ----------------------------

// scenarioBench runs a document of scenarios through spec.Run on a fresh
// engine per op, the way `paratime run` does.
type scenarioBench struct {
	cfg   config
	doc   []byte
	scs   []*spec.Scenario
	tight tightness // corpus only: covered tasks must match TIGHTNESS.json
	gen   func(seed int64) ([]byte, error)
	want  string
	// digest and encs are the first op's output; every later op, and the
	// traced replay, must reproduce them.
	digest string
	encs   [][]byte
}

func newScenarioBench(cfg config, seed int64, gen func(int64) ([]byte, error), tight tightness, want string) (*scenarioBench, error) {
	doc, err := gen(seed)
	if err != nil {
		return nil, err
	}
	return &scenarioBench{cfg: cfg, doc: doc, tight: tight, gen: gen, want: want}, nil
}

func (b *scenarioBench) name() string { return b.cfg.Workload }

func (b *scenarioBench) setup() error {
	scs, err := spec.DecodeAll(b.doc)
	b.scs = scs
	return err
}

// pass runs every scenario once and returns the reports, their
// encodings and the time the program took.
func pass(ctx context.Context, cfg config, scs []*spec.Scenario) ([]*spec.Report, [][]byte, time.Duration, error) {
	start := time.Now()
	eng := engine.New(cfg.EngineWorkers)
	reps := make([]*spec.Report, len(scs))
	encs := make([][]byte, len(scs))
	for i, sc := range scs {
		rep, err := spec.Run(ctx, sc, eng)
		if err != nil {
			return nil, nil, time.Since(start), fmt.Errorf("%s: %w", sc.Name, err)
		}
		enc, err := rep.Encode()
		if err != nil {
			return nil, nil, time.Since(start), err
		}
		reps[i], encs[i] = rep, enc
	}
	return reps, encs, time.Since(start), nil
}

// checkPass verifies one pass's reports and returns their digest.
func checkPass(reps []*spec.Report, encs [][]byte, tight tightness) (string, error) {
	h := sha256.New()
	covered := 0
	for i, rep := range reps {
		if err := checkReport(rep); err != nil {
			return "", err
		}
		if tight != nil {
			n, err := tight.check(rep)
			if err != nil {
				return "", err
			}
			covered += n
		}
		h.Write(encs[i])
	}
	if tight != nil && covered != tight.covered() {
		return "", fmt.Errorf("the corpus covers %d of the %d TIGHTNESS.json entries", covered, tight.covered())
	}
	return sum(h), nil
}

func (b *scenarioBench) window(ctx context.Context, d time.Duration) ([]time.Duration, int, error) {
	return closedLoop(d, func() (time.Duration, error) {
		reps, encs, lat, err := pass(ctx, b.cfg, b.scs)
		if err != nil {
			return lat, err
		}
		digest, err := checkPass(reps, encs, b.tight)
		if err != nil {
			return lat, err
		}
		if b.digest == "" {
			b.digest, b.encs = digest, encs
		} else if digest != b.digest {
			return lat, fmt.Errorf("output digest %s differs from the first op's %s", digest, b.digest)
		}
		return lat, nil
	})
}

func (b *scenarioBench) traced(ctx context.Context, tr *tracer) error {
	if b.encs == nil {
		return fmt.Errorf("no untraced op to compare the replay with")
	}
	op := tr.begin(opSpan)
	rp := newReplayer(tr)
	encs := make([][]byte, len(b.scs))
	for i, sc := range b.scs {
		rep, err := rp.run(sc)
		if err != nil {
			tr.end(op)
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		if err := tr.do("spec.encode", func() (err error) { encs[i], err = rep.Encode(); return err }); err != nil {
			tr.end(op)
			return err
		}
	}
	tr.end(op)
	for i, enc := range encs {
		if !bytes.Equal(enc, b.encs[i]) {
			return fmt.Errorf("replay of %s differs from spec.Run:\n%s\nwant:\n%s", b.scs[i].Name, enc, b.encs[i])
		}
	}
	return nil
}

func (b *scenarioBench) finish(ctx context.Context) (int, error) {
	got, err := scenarioDigest(ctx, b.cfg, b.gen)
	if err != nil {
		return 0, err
	}
	if got != b.want {
		logf("reference output digest %s, digests.json has %s", got, b.want)
		return 1, nil
	}
	return 0, nil
}

func scenarioDigest(ctx context.Context, cfg config, gen func(int64) ([]byte, error)) (string, error) {
	doc, err := gen(refSeed)
	if err != nil {
		return "", err
	}
	scs, err := spec.DecodeAll(doc)
	if err != nil {
		return "", err
	}
	reps, encs, _, err := pass(ctx, cfg, scs)
	if err != nil {
		return "", err
	}
	var tight tightness
	if cfg.Workload == "corpus" {
		if tight, err = loadTightness(); err != nil {
			return "", err
		}
	}
	return checkPass(reps, encs, tight)
}

// --- sweep -------------------------------------------------------------------

// sweepBench runs one cold sweep.Run per op: a fresh engine, no manifest,
// ordered output, each line NDJSON-encoded the way the CLI encodes it.
type sweepBench struct {
	cfg    config
	doc    []byte
	sd     *spec.SweepDoc
	want   string
	digest string
	last   *sweep.Summary
	buf    bytes.Buffer
}

func (b *sweepBench) name() string { return "sweep" }

func (b *sweepBench) setup() error {
	sd, err := spec.DecodeSweep(b.doc)
	b.sd = sd
	return err
}

// runSweep prices every point and returns the NDJSON stream's digest.
func runSweep(ctx context.Context, cfg config, sd *spec.SweepDoc, buf *bytes.Buffer) (string, *sweep.Summary, time.Duration, error) {
	start := time.Now()
	buf.Reset()
	var lineErr error
	s, err := sweep.Run(ctx, sd, sweep.Options{Engine: engine.New(cfg.EngineWorkers), Parallelism: cfg.SweepWorkers},
		func(l sweep.Line) error {
			line, err := json.Marshal(l)
			if err != nil {
				return err
			}
			buf.Write(line)
			buf.WriteByte('\n')
			if lineErr == nil {
				if l.Error != "" {
					lineErr = fmt.Errorf("point %s: %s", l.ID, l.Error)
				} else {
					lineErr = checkReport(l.Report)
				}
			}
			return nil
		})
	lat := time.Since(start)
	if err == nil {
		err = lineErr
	}
	if err != nil {
		return "", nil, lat, err
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	return sum(h), s, lat, nil
}

func (b *sweepBench) window(ctx context.Context, d time.Duration) ([]time.Duration, int, error) {
	return closedLoop(d, func() (time.Duration, error) {
		digest, s, lat, err := runSweep(ctx, b.cfg, b.sd, &b.buf)
		if err != nil {
			return lat, err
		}
		b.last = s
		if b.digest == "" {
			b.digest = digest
		} else if digest != b.digest {
			return lat, fmt.Errorf("output digest %s differs from the first op's %s", digest, b.digest)
		}
		return lat, nil
	})
}

func (b *sweepBench) traced(ctx context.Context, tr *tracer) error {
	if b.digest == "" {
		return fmt.Errorf("no untraced op to compare the replay with")
	}
	op := tr.begin(opSpan)
	err := b.replay(tr)
	tr.end(op)
	if err != nil {
		return err
	}
	h := sha256.New()
	h.Write(b.buf.Bytes())
	if got := sum(h); got != b.digest {
		return fmt.Errorf("replayed sweep digest %s differs from sweep.Run's %s", got, b.digest)
	}
	return nil
}

// replay mirrors sweep.Run's inline path: validate the document, then
// per point materialise, fingerprint, analyse and encode.
func (b *sweepBench) replay(tr *tracer) error {
	if err := tr.do("spec.decode", b.sd.Validate); err != nil {
		return err
	}
	rp := newReplayer(tr)
	b.buf.Reset()
	for i := 0; i < b.sd.Points(); i++ {
		var pt *spec.SweepPoint
		if err := tr.do("spec.point", func() (err error) { pt, err = b.sd.Point(i); return err }); err != nil {
			return err
		}
		var fp string
		if err := tr.do("spec.fingerprint", func() (err error) { fp, err = pt.Scenario.Fingerprint(); return err }); err != nil {
			return err
		}
		rep, err := rp.run(pt.Scenario)
		if err != nil {
			return fmt.Errorf("point %s: %w", pt.ID, err)
		}
		err = tr.do("spec.encode", func() error {
			line, err := json.Marshal(sweep.Line{Index: i, ID: pt.ID, Coords: pt.Coords, Fingerprint: fp, Report: rep})
			b.buf.Write(line)
			b.buf.WriteByte('\n')
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *sweepBench) finish(ctx context.Context) (int, error) {
	got, err := sweepDigest(ctx, b.cfg)
	if err != nil {
		return 0, err
	}
	if got != b.want {
		logf("reference output digest %s, digests.json has %s", got, b.want)
		return 1, nil
	}
	return 0, nil
}

func (b *sweepBench) layerMetrics(m map[string]metric) {
	if b.last != nil {
		m["sweep.prepare_reuse"] = metric{b.last.PrepareReuse, "1"}
		m["sweep.prepare_lookups"] = metric{float64(b.last.PrepareHits + b.last.PrepareMisses), "count"}
	}
}

func sweepDigest(ctx context.Context, cfg config) (string, error) {
	doc, err := sweepDoc(refSeed)
	if err != nil {
		return "", err
	}
	sd, err := spec.DecodeSweep(doc)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	digest, _, _, err := runSweep(ctx, cfg, sd, &buf)
	return digest, err
}

// --- serve -------------------------------------------------------------------

// Serve sizing mirrors `paratime serve`: a bounded prepare memo and an
// admission queue; the result cache is memory-only and unbounded so a
// repeat always hits.
const (
	serveMemoEntries = 256
	serveQueueDepth  = 64
)

// serveBench sends the generated stream open loop to an in-process
// server: each request is due at a fixed time, and its latency runs from
// that due time to the response's last byte.
type serveBench struct {
	cfg  config
	in   *serveInputs
	want string
	next int // the next request of the stream to send
	// Per request sent untraced: digests of the response body and of its
	// report, checked against repeats and against spec.Run.
	sent      []bool
	bodySum   [][sha256.Size]byte
	reportSum [][sha256.Size]byte
	late      []time.Duration
	// genCPU is the load generator's CPU time so far.
	genCPU time.Duration

	ts     *httptest.Server
	client *http.Client

	// Traced mode: a server whose analysis and result cache go through
	// the tracer.
	tts   *httptest.Server
	tc    *http.Client
	check *engine.Engine
	// The analyze wrapper runs on the handler's goroutine and records
	// when the analysis ran; the client reads it once the response is in.
	mu     sync.Mutex
	aStart float64
	aEnd   float64
	seen   bool
}

func newServeBench(cfg config, in *serveInputs, want string) *serveBench {
	n := len(in.reqs)
	return &serveBench{cfg: cfg, in: in, want: want, sent: make([]bool, n),
		bodySum: make([][sha256.Size]byte, n), reportSum: make([][sha256.Size]byte, n)}
}

func (b *serveBench) name() string { return "serve" }

func newServer(cfg config, cache cachestore.CacheBackend, analyze func(context.Context, *spec.Scenario, *engine.Engine) (*spec.Report, error)) (*httptest.Server, *http.Client) {
	srv := server.New(server.Config{
		Engine:      engine.NewWithCache(cfg.EngineWorkers, cachestore.NewMemory(serveMemoEntries)),
		Cache:       cache,
		MaxInflight: cfg.MaxInflight,
		QueueDepth:  serveQueueDepth,
		Parallelism: cfg.Parallelism,
		Analyze:     analyze,
	})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.Conns, MaxIdleConnsPerHost: cfg.Conns}}
	return ts, client
}

func closeServer(ts *httptest.Server, c *http.Client) {
	if ts != nil {
		c.CloseIdleConnections()
		ts.Close()
	}
}

// post sends one request and returns the response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// release stops the server an earlier set-up built.
func (b *serveBench) release() {
	closeServer(b.ts, b.client)
	b.ts, b.client = nil, nil
}

// setup builds the server and primes its prepare memo with the base
// scenarios, so that the stream's variants hit it.
func (b *serveBench) setup() error {
	b.ts, b.client = newServer(b.cfg, cachestore.NewMemory(0), nil)
	for _, body := range b.in.prime {
		if _, err := post(context.Background(), b.client, b.ts.URL, body); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// terminalReport returns the raw JSON of the report in a response's
// terminal event, after the report checks.
func terminalReport(body []byte) (json.RawMessage, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var ev struct {
		Report json.RawMessage `json:"report"`
		Error  string          `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil {
		return nil, fmt.Errorf("terminal event: %w", err)
	}
	if ev.Error != "" || ev.Report == nil {
		return nil, fmt.Errorf("terminal event carries no report (error %q)", ev.Error)
	}
	var rep spec.Report
	if err := json.Unmarshal(ev.Report, &rep); err != nil {
		return nil, err
	}
	return ev.Report, checkReport(&rep)
}

// runReport is spec.Run's report for a request body, encoded the way the
// server embeds it in the terminal event.
func runReport(ctx context.Context, body []byte, eng *engine.Engine) ([]byte, error) {
	sc, err := spec.Decode(body)
	if err != nil {
		return nil, err
	}
	rep, err := spec.Run(ctx, sc, eng)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

type serveJob struct {
	k    int
	body []byte
}

func (b *serveBench) window(ctx context.Context, d time.Duration) ([]time.Duration, int, error) {
	n := int(b.cfg.Rate * d.Seconds())
	first := b.next
	if first+n > len(b.in.reqs) {
		return nil, 0, fmt.Errorf("serve stream exhausted: %d requests, window needs %d more", len(b.in.reqs), first+n-len(b.in.reqs))
	}
	b.next += n
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	late := make([]time.Duration, n)
	interval := time.Duration(float64(time.Second) / b.cfg.Rate)
	start := time.Now().Add(interval)
	jobs := make(chan serveJob, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < b.cfg.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				i := first + j.k
				due := start.Add(time.Duration(j.k) * interval)
				late[j.k] = time.Since(due)
				body, err := post(ctx, b.client, b.ts.URL, j.body)
				lat[j.k] = time.Since(due)
				var raw []byte
				if err == nil {
					raw, err = terminalReport(body)
				}
				errs[j.k] = err
				b.sent[i] = true
				b.bodySum[i] = sha256.Sum256(body)
				b.reportSum[i] = sha256.Sum256(raw)
			}
		}()
	}
	cpu, err := b.generate(start, interval, first, n, jobs)
	close(jobs)
	wg.Wait()
	b.genCPU += cpu
	b.late = append(b.late, late...)
	if err != nil {
		return nil, 0, err
	}
	failed := 0
	for k, err := range errs {
		i := first + k
		if f := b.in.reqs[i].first; err == nil && f != i && b.bodySum[i] != b.bodySum[f] {
			err = fmt.Errorf("request %d repeats request %d but its response differs", i, f)
		}
		if err != nil {
			if failed == 0 {
				logf("request %d failed: %v", i, err)
			}
			failed++
		}
	}
	return lat, failed, nil
}

// generate encodes requests first..first+n-1 and sends each into jobs at
// its due time. Timer wake-ups on a shared host overshoot by up to a few
// milliseconds, which would read as latency, so it sleeps until shortly
// before each due time and spins the rest. It runs locked to its own
// thread and returns that thread's CPU time: load-generator work that
// cpu_ms_per_op leaves out.
func (b *serveBench) generate(start time.Time, interval time.Duration, first, n int, jobs chan<- serveJob) (time.Duration, error) {
	const spin = 1500 * time.Microsecond
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	for k := 0; k < n; k++ {
		body, err := b.in.body(first + k)
		if err != nil {
			return threadCPU() - cpu0, err
		}
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due) - spin; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		jobs <- serveJob{k, body}
	}
	return threadCPU() - cpu0, nil
}

// threadCPU is the calling thread's user+system CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD on Linux; package syscall does not name it
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for the calling thread
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced sends the next request, paced at the stream's rate, to the
// traced server: its analysis runs through the replay and its result
// cache through timing wrappers.
func (b *serveBench) traced(ctx context.Context, tr *tracer) error {
	if b.tts == nil {
		if err := b.startTraced(tr); err != nil {
			return err
		}
	}
	i := b.next
	if i >= len(b.in.reqs) {
		return fmt.Errorf("serve stream exhausted")
	}
	b.next++
	body, err := b.in.body(i)
	if err != nil {
		return err
	}
	time.Sleep(time.Duration(float64(time.Second) / b.cfg.Rate))
	b.mu.Lock()
	b.seen = false
	b.mu.Unlock()
	op := tr.begin(opSpan)
	t0 := tr.now()
	resp, err := post(ctx, b.tc, b.tts.URL, body)
	t1 := tr.now()
	b.mu.Lock()
	if err == nil && b.seen {
		tr.add("server.analyzed", 1)
		tr.add("server.pre_ms", b.aStart-t0)
		tr.add("server.post_ms", t1-b.aEnd)
	}
	b.mu.Unlock()
	tr.end(op)
	if err != nil {
		return err
	}
	// The replayed analysis must answer exactly what spec.Run answers.
	got, err := terminalReport(resp)
	if err != nil {
		return err
	}
	want, err := runReport(ctx, body, b.check)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("request %d: replayed report differs from spec.Run:\n%s\nwant:\n%s", i, got, want)
	}
	return nil
}

func (b *serveBench) startTraced(tr *tracer) error {
	rp := newReplayer(tr)
	analyze := func(ctx context.Context, s *spec.Scenario, _ *engine.Engine) (*spec.Report, error) {
		start := tr.now()
		var rep *spec.Report
		err := tr.do("server.analyze", func() (err error) { rep, err = rp.run(s); return err })
		end := tr.now()
		b.mu.Lock()
		b.seen, b.aStart, b.aEnd = true, start, end
		b.mu.Unlock()
		return rep, err
	}
	b.tts, b.tc = newServer(b.cfg, timedCache{cachestore.NewMemory(0), tr}, analyze)
	b.check = engine.New(b.cfg.EngineWorkers)
	for _, body := range b.in.prime {
		if _, err := post(context.Background(), b.tc, b.tts.URL, body); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// timedCache times the result cache's backend calls.
type timedCache struct {
	cachestore.CacheBackend
	tr *tracer
}

func (c timedCache) Get(key string) (any, bool) {
	id := c.tr.begin("cachestore.get")
	v, ok := c.CacheBackend.Get(key)
	c.tr.end(id)
	c.tr.add("cachestore.lookups", 1)
	if ok {
		c.tr.add("cachestore.hits", 1)
	}
	return v, ok
}

func (c timedCache) Put(key string, v any) {
	id := c.tr.begin("cachestore.put")
	c.CacheBackend.Put(key, v)
	c.tr.end(id)
}

// finish checks every untraced response against spec.Run on the same
// scenario, then the reference digest, and stops the servers.
func (b *serveBench) finish(ctx context.Context) (int, error) {
	defer closeServer(b.ts, b.client)
	defer closeServer(b.tts, b.tc)
	eng := engine.New(b.cfg.EngineWorkers)
	failed := 0
	for i, r := range b.in.reqs {
		if !b.sent[i] || r.first != i {
			continue
		}
		body, err := b.in.body(i)
		if err != nil {
			return failed, err
		}
		want, err := runReport(ctx, body, eng)
		if err != nil {
			return failed, err
		}
		if sha256.Sum256(want) != b.reportSum[i] {
			if failed == 0 {
				logf("request %d: served report differs from spec.Run", i)
			}
			failed++
		}
	}
	got, err := serveDigest(ctx, b.cfg)
	if err != nil {
		return failed, err
	}
	if got != b.want {
		logf("reference output digest %s, digests.json has %s", got, b.want)
		failed++
	}
	return failed, nil
}

func (b *serveBench) loadgenCPU() time.Duration { return b.genCPU }

func (b *serveBench) layerMetrics(m map[string]metric) {
	m["loadgen.late_p90_ms"] = metric{quantile(durationsMs(b.late), 0.9), "ms"}
}

// serveDigest sends the reference seed's first requests one at a time to
// a fresh server and digests the reports it answers.
func serveDigest(ctx context.Context, cfg config) (string, error) {
	const n = 32
	in, err := serveStream(refSeed, n)
	if err != nil {
		return "", err
	}
	ts, c := newServer(cfg, cachestore.NewMemory(0), nil)
	defer closeServer(ts, c)
	h := sha256.New()
	for i := range in.reqs {
		body, err := in.body(i)
		if err != nil {
			return "", err
		}
		resp, err := post(ctx, c, ts.URL, body)
		if err != nil {
			return "", err
		}
		raw, err := terminalReport(resp)
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return sum(h), nil
}
