package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/spec"
)

// soloScenario is a small valid "spec":1 scenario (two tasks, so the
// stream has an interesting shape: two task events then the report).
const soloScenario = `{
  "spec": 1,
  "name": "srv-solo",
  "tasks": [
    {
      "name": "countdown",
      "source": "        li   r1, 10\nloop:   addi r1, r1, -1\n        bne  r1, r0, loop\n        halt"
    },
    {
      "name": "nested",
      "source": "        li   r2, 0\n        li   r3, 4\nouter:  li   r4, 3\ninner:  add  r2, r2, r4\n        addi r4, r4, -1\n        bne  r4, r0, inner\n        addi r3, r3, -1\n        bne  r3, r0, outer\n        halt",
      "bounds": {"inner": 3, "outer": 4}
    }
  ],
  "system": {
    "l1i": {"sets": 16, "ways": 2, "lineBytes": 16, "hitLatency": 1, "missPenalty": 4},
    "l1d": {"sets": 16, "ways": 2, "lineBytes": 16, "hitLatency": 1, "missPenalty": 4},
    "l2": {"sets": 32, "ways": 4, "lineBytes": 32, "hitLatency": 4, "missPenalty": 20}
  },
  "mode": {"kind": "solo"}
}`

func postAnalyze(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func getStats(t *testing.T, url string) StatsReply {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var reply StatsReply
	if err := json.Unmarshal(readAll(t, resp), &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestAnalyzeHappyPathAndCacheHit: a valid scenario streams NDJSON task
// events plus a terminal report, and an identical second POST returns
// byte-identical output served from the result cache (observable via
// the X-Paratime-Cache header and /v1/stats).
func TestAnalyzeHappyPathAndCacheHit(t *testing.T) {
	srv := New(Config{Cache: cachestore.NewMemory(16)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postAnalyze(t, ts.URL, soloScenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	if v := resp.Header.Get("X-Paratime-Cache"); v != "miss" {
		t.Errorf("first request cache header %q, want miss", v)
	}
	first := readAll(t, resp)

	lines := bytes.Split(bytes.TrimSuffix(first, []byte("\n")), []byte("\n"))
	if len(lines) != 3 { // 2 task events + report
		t.Fatalf("got %d NDJSON lines, want 3:\n%s", len(lines), first)
	}
	var last Event
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Report == nil || len(last.Report.Tasks) != 2 {
		t.Fatalf("terminal event has no 2-task report: %s", lines[len(lines)-1])
	}
	if last.Report.Tasks[0].WCET <= 0 {
		t.Errorf("non-positive WCET %d", last.Report.Tasks[0].WCET)
	}
	if !strings.HasPrefix(last.Fingerprint, "spec1-") {
		t.Errorf("fingerprint %q", last.Fingerprint)
	}

	resp2 := postAnalyze(t, ts.URL, soloScenario)
	if v := resp2.Header.Get("X-Paratime-Cache"); v != "hit" {
		t.Errorf("second request cache header %q, want hit", v)
	}
	second := readAll(t, resp2)
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs from computed response:\n%s\nvs\n%s", first, second)
	}

	st := getStats(t, ts.URL)
	if st.Requests.CacheHits != 1 || st.Requests.CacheMisses != 1 || st.Requests.Served != 2 {
		t.Errorf("stats hits=%d misses=%d served=%d, want 1/1/2",
			st.Requests.CacheHits, st.Requests.CacheMisses, st.Requests.Served)
	}
	if st.Cache == nil || st.Cache.Hits != 1 {
		t.Errorf("cache tier stats missing or hitless: %+v", st.Cache)
	}
}

// TestAnalyzeStreamingOrder: task events arrive in task order, each
// carrying exactly one task, before the terminal report event.
func TestAnalyzeStreamingOrder(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postAnalyze(t, ts.URL, soloScenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSuffix(readAll(t, resp), []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	wantTasks := []string{"countdown", "nested"}
	for i, want := range wantTasks {
		var ev Event
		if err := json.Unmarshal(lines[i], &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Task == nil || ev.Task.Name != want {
			t.Errorf("line %d: task %+v, want name %q", i, ev.Task, want)
		}
		if ev.Report != nil {
			t.Errorf("line %d: report before all task events", i)
		}
		if ev.Scenario != "srv-solo" {
			t.Errorf("line %d: scenario %q", i, ev.Scenario)
		}
	}
	var last Event
	if err := json.Unmarshal(lines[2], &last); err != nil {
		t.Fatal(err)
	}
	if last.Task != nil || last.Report == nil {
		t.Errorf("terminal line is not a pure report event: %s", lines[2])
	}
}

// TestAnalyzeInvalidScenario: strict decoding rejects malformed input at
// the edge with 400 and a JSON error body naming the problem.
func TestAnalyzeInvalidScenario(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string]string{
		"not json":      "{",
		"unknown field": `{"spec": 1, "bogus": true}`,
		"no tasks":      `{"spec": 1, "system": {"l1i": {"sets": 16, "ways": 2, "lineBytes": 16, "hitLatency": 1, "missPenalty": 4}, "l1d": {"sets": 16, "ways": 2, "lineBytes": 16, "hitLatency": 1, "missPenalty": 4}}, "mode": {"kind": "solo"}}`,
		"wrong version": strings.Replace(soloScenario, `"spec": 1`, `"spec": 99`, 1),
	}
	for label, body := range cases {
		resp := postAnalyze(t, ts.URL, body)
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", label, resp.StatusCode)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not a JSON error document", label, data)
		}
	}

	// Wrong method is 405 with an Allow header, not 400.
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow %q", allow)
	}
}

// blockingAnalyze returns an Analyze seam whose calls park until release
// is closed (or the request context ends), signalling each start.
func blockingAnalyze(started chan<- struct{}, release <-chan struct{}) func(context.Context, *spec.Scenario, *engine.Engine) (*spec.Report, error) {
	return func(ctx context.Context, s *spec.Scenario, eng *engine.Engine) (*spec.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return spec.Run(ctx, s, eng)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestAnalyzeQueueOverflow: with one analysis slot and a queue of one,
// a concurrent flood gets exactly (flood − slots − queue) rejections,
// each a 429 with Retry-After, and every admitted request completes once
// the slot frees up.
func TestAnalyzeQueueOverflow(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	srv := New(Config{
		MaxInflight: 1,
		QueueDepth:  1,
		Analyze:     blockingAnalyze(started, release),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single slot.
	var wg sync.WaitGroup
	var ok, rejected atomic.Int64
	post := func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(soloScenario))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
			ok.Add(1)
		case http.StatusTooManyRequests:
			rejected.Add(1)
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", resp.StatusCode)
		}
	}
	wg.Add(1)
	go post()
	<-started // slot holder is inside Analyze

	// Fill the queue, then flood: all further requests must be rejected
	// immediately (no blocking), while the queued one waits.
	const flood = 6
	wg.Add(flood)
	for i := 0; i < flood; i++ {
		go post()
	}
	// Exactly flood-1 rejections: 1 running + 1 queued + (flood-1) over.
	deadline := time.After(10 * time.Second)
	for rejected.Load() < flood-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d rejections after flood", rejected.Load())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	<-started // the queued request enters Analyze
	wg.Wait()

	if got := ok.Load(); got != 2 {
		t.Errorf("%d requests succeeded, want 2 (slot + queue)", got)
	}
	if got := rejected.Load(); got != flood-1 {
		t.Errorf("%d requests rejected, want %d", got, flood-1)
	}
	st := getStats(t, ts.URL)
	if st.Requests.Rejected != flood-1 {
		t.Errorf("stats rejected %d, want %d", st.Requests.Rejected, flood-1)
	}
	if st.Queue.Inflight != 0 || st.Queue.Queued != 0 {
		t.Errorf("queue not drained: %+v", st.Queue)
	}
}

// TestAnalyzeCancellationReleasesSlot: a client abandoning its request
// mid-analysis frees the slot — the next request is admitted, reaches
// Analyze and completes.
//
// The server learns of the disconnect asynchronously, after the client
// has already seen its own cancellation. Until then the abandoned
// analysis rightly holds the only slot and a new request gets 429, so
// the test first waits for the analysis to observe the cancellation.
// Every wait has a deadline, so a lost slot fails instead of hanging.
func TestAnalyzeCancellationReleasesSlot(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	abandoned := make(chan struct{}, 1)
	seam := blockingAnalyze(started, release)
	srv := New(Config{
		MaxInflight: 1,
		QueueDepth:  0,
		Analyze: func(ctx context.Context, s *spec.Scenario, eng *engine.Engine) (*spec.Report, error) {
			rep, err := seam(ctx, s, eng)
			if errors.Is(err, context.Canceled) {
				abandoned <- struct{}{}
			}
			return rep, err
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const wait = 10 * time.Second
	client := &http.Client{Timeout: wait}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(soloScenario))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-started: // analysis is in flight
	case <-time.After(wait):
		t.Fatal("first request never reached Analyze")
	}
	cancel() // client walks away
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want context.Canceled", err)
	}
	select {
	case <-abandoned:
	case <-time.After(wait):
		t.Fatal("analysis never observed the client's cancellation")
	}

	// The slot must come back. The handler frees it just after Analyze
	// returns, so a 429 inside that window is retried until the deadline.
	close(release)
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(soloScenario))
		if err != nil {
			t.Fatalf("follow-up request: %v", err)
		}
		body := readAll(t, resp)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("follow-up status %d: %s", resp.StatusCode, body)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-started:
	default:
		t.Fatal("follow-up answered without reaching Analyze")
	}
}

// TestAnalyzeTimeout: a server-side timeout turns a stuck analysis into
// 504 rather than a hung connection.
func TestAnalyzeTimeout(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed: analysis hangs
	srv := New(Config{
		Timeout: 20 * time.Millisecond,
		Analyze: blockingAnalyze(started, release),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postAnalyze(t, ts.URL, soloScenario)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestWarmRestartServesFromDisk: a second server instance sharing only
// the disk cache directory answers a repeated scenario byte-identically
// without running any analysis — the engine memo records zero misses,
// and /v1/stats attributes the answer to the cache.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	newServer := func() (*Server, *httptest.Server) {
		disk, err := cachestore.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{
			Engine: engine.New(0),
			Cache:  cachestore.NewTwoTier(cachestore.NewMemory(16), disk),
		})
		return srv, httptest.NewServer(srv.Handler())
	}

	srv1, ts1 := newServer()
	first := readAll(t, postAnalyze(t, ts1.URL, soloScenario))
	st1 := getStats(t, ts1.URL)
	if st1.Engine.MemoMisses == 0 {
		t.Fatal("first run should have prepared tasks (memo misses > 0)")
	}
	ts1.Close()
	if err := srv1.cfg.Cache.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, fresh memory tier, same disk directory.
	_, ts2 := newServer()
	defer ts2.Close()
	resp := postAnalyze(t, ts2.URL, soloScenario)
	if v := resp.Header.Get("X-Paratime-Cache"); v != "hit" {
		t.Errorf("warm-restart cache header %q, want hit", v)
	}
	second := readAll(t, resp)
	if !bytes.Equal(first, second) {
		t.Fatalf("warm-restart response differs:\n%s\nvs\n%s", first, second)
	}
	st2 := getStats(t, ts2.URL)
	if st2.Engine.MemoMisses != 0 || st2.Engine.MemoHits != 0 {
		t.Errorf("warm restart ran the engine: memo hits=%d misses=%d, want 0/0",
			st2.Engine.MemoHits, st2.Engine.MemoMisses)
	}
	if st2.Requests.CacheHits != 1 || st2.Requests.CacheMisses != 0 {
		t.Errorf("warm restart stats hits=%d misses=%d, want 1/0",
			st2.Requests.CacheHits, st2.Requests.CacheMisses)
	}
	if st2.Cache == nil || st2.Cache.Disk == nil || st2.Cache.Disk.Hits != 1 {
		t.Errorf("disk tier did not serve the hit: %+v", st2.Cache)
	}
}

// TestAnalyzeScenarioArray: the endpoint accepts the `paratime export`
// format (a JSON array of scenarios) and streams each scenario's events
// in order.
func TestAnalyzeScenarioArray(t *testing.T) {
	srv := New(Config{Cache: cachestore.NewMemory(16)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := "[" + soloScenario + "," + strings.Replace(soloScenario, "srv-solo", "srv-solo-b", 1) + "]"
	resp := postAnalyze(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSuffix(readAll(t, resp), []byte("\n")), []byte("\n"))
	if len(lines) != 6 { // (2 tasks + report) × 2 scenarios
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	var names []string
	for _, ln := range lines {
		var ev Event
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatal(err)
		}
		names = append(names, ev.Scenario)
	}
	want := []string{"srv-solo", "srv-solo", "srv-solo", "srv-solo-b", "srv-solo-b", "srv-solo-b"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("scenario order %v, want %v", names, want)
	}
	if st := getStats(t, ts.URL); st.Requests.Served != 2 || st.Requests.CacheMisses != 2 {
		t.Errorf("stats %+v, want 2 served / 2 misses", st.Requests)
	}
}

// TestHealthz: liveness endpoint answers ok.
func TestHealthz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz %d %q", resp.StatusCode, body)
	}
}

// TestListenAndServeGracefulShutdown: cancelling the context stops the
// listener, drains, and closes the cache; ready reports a usable
// address.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	srv := New(Config{Cache: cachestore.NewMemory(4)})
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a.String() })
	}()
	addr := <-addrCh
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
