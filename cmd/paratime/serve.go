package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/server"
)

// Default sizing for the serve verb's caches and queue.
const (
	defaultResultCacheEntries = 1024
	defaultResultCacheBytes   = 64 << 20 // response-stream payload bound
	defaultMemoEntries        = 256
	defaultQueueDepth         = 64
)

// buildServeCache assembles the result cache for the serve verb: an
// in-memory LRU, fronted onto a persistent disk tier when cacheDir is
// set (so a restarted server answers known scenarios without
// re-analyzing anything).
func buildServeCache(cacheDir string) (cachestore.CacheBackend, error) {
	// Bounded by entries and bytes: cached NDJSON streams vary wildly in
	// size (explore witnesses), so the entry bound alone cannot cap the
	// memory footprint. The tier's admission limit keeps one huge response
	// from evicting a large slice of the hot set.
	mem := cachestore.NewMemorySized(defaultResultCacheEntries, defaultResultCacheBytes)
	if cacheDir == "" {
		return mem, nil
	}
	disk, err := cachestore.NewDisk(cacheDir)
	if err != nil {
		return nil, err
	}
	return cachestore.NewTwoTier(mem, disk), nil
}

// runServe implements `paratime serve`: it stands up the analysis
// service and blocks until ctx is cancelled (Ctrl-C), then drains
// in-flight requests and closes the cache tiers.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("cache-dir", "", "persistent result-cache directory (empty: memory only)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent analyses (0: GOMAXPROCS)")
	queue := fs.Int("queue", defaultQueueDepth, "admission queue depth (overflow answers 429)")
	timeout := fs.Duration("timeout", 0, "per-request analysis timeout (0: none)")
	parallelism := fs.Int("parallelism", 0, "explore-pricing workers per analysis (0: PARATIME_PARALLELISM or GOMAXPROCS; results are identical at any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallelism < 0 {
		return fmt.Errorf("serve: -parallelism wants a non-negative integer, got %d", *parallelism)
	}
	cache, err := buildServeCache(*cacheDir)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		// The engine's prepare memo is LRU-bounded: a long-lived server
		// must not grow without bound across distinct scenarios.
		Engine:      engine.NewWithCache(0, cachestore.NewMemory(defaultMemoEntries)),
		Cache:       cache,
		MaxInflight: *maxInflight,
		QueueDepth:  *queue,
		Timeout:     *timeout,
		Parallelism: *parallelism,
	})
	return srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(os.Stderr, "paratime: serving on http://%s (POST /v1/analyze)\n", a)
	})
}
