package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"paratime/internal/cachestore"
	"paratime/internal/parallel"
)

func sumWaitBuckets(w QueueWaitReply) uint64 {
	return w.Le1 + w.Le5 + w.Le10 + w.Le50 + w.Le100 + w.Le500 + w.Le1000 + w.Gt1000
}

// TestStatsParallelismAndQueueWait: /v1/stats reports the effective
// explore-pricing worker count and a queue-wait histogram in which every
// admitted request lands in exactly one bucket.
func TestStatsParallelismAndQueueWait(t *testing.T) {
	parallel.SetDefault(3)
	t.Cleanup(func() { parallel.SetDefault(0) }) // back to automatic

	srv := New(Config{Cache: cachestore.NewMemory(4)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 3
	for i := 0; i < n; i++ {
		resp := postAnalyze(t, ts.URL, soloScenario)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		readAll(t, resp)
	}

	st := getStats(t, ts.URL)
	if st.Parallelism != 3 {
		t.Errorf("parallelism %d, want 3", st.Parallelism)
	}
	if got := sumWaitBuckets(st.Queue.WaitMs); got != n {
		t.Errorf("wait histogram holds %d observations, want %d: %+v", got, n, st.Queue.WaitMs)
	}

	// The raw JSON document must expose both fields under their wire
	// names (dashboards key on them).
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(readAll(t, resp), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["parallelism"]; !ok {
		t.Error("stats JSON lacks \"parallelism\"")
	}
	var queue map[string]json.RawMessage
	if err := json.Unmarshal(raw["queue"], &queue); err != nil {
		t.Fatal(err)
	}
	hist, ok := queue["queue_wait_ms"]
	if !ok {
		t.Fatal("stats JSON lacks \"queue_wait_ms\"")
	}
	var buckets map[string]uint64
	if err := json.Unmarshal(hist, &buckets); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"le_1", "le_5", "le_10", "le_50", "le_100", "le_500", "le_1000", "gt_1000"} {
		if _, ok := buckets[key]; !ok {
			t.Errorf("queue_wait_ms lacks bucket %q", key)
		}
	}
}
