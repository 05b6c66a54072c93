package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/spec"
	"paratime/internal/sweep"
)

// Default sizing for the sweep verb's caches.
const (
	// defaultSweepMemoEntries LRU-caps the engine's Prepare memo: a
	// million-point sweep must not hold a prepared artefact per distinct
	// system forever.
	defaultSweepMemoEntries = 512
	// defaultSweepManifestEntries / Bytes bound the in-memory manifest
	// tier fronting the persistent one.
	defaultSweepManifestEntries = 4096
	defaultSweepManifestBytes   = 64 << 20
)

// buildSweepManifest assembles the incremental-re-analysis manifest: a
// bounded memory LRU fronting a persistent disk tier under cacheDir.
// Without a cache directory there is no manifest at all — every point
// of one run is a distinct scenario, so a purely in-process manifest
// could never hit.
func buildSweepManifest(cacheDir string) (cachestore.CacheBackend, error) {
	if cacheDir == "" {
		return nil, nil
	}
	disk, err := cachestore.NewDisk(cacheDir)
	if err != nil {
		return nil, err
	}
	mem := cachestore.NewMemorySized(defaultSweepManifestEntries, defaultSweepManifestBytes)
	return cachestore.NewTwoTier(mem, disk), nil
}

// runSweep implements `paratime sweep`: decode one sweep document,
// stream one result line per point (text, or NDJSON with -json) to
// stdout or -out, and print the run summary — point and error counts,
// manifest hits, Prepare-memo reuse ratio, scenarios/sec — to stderr.
//
//paralint:canonical NDJSON lines come from sweep.Line structs with fixed json tags; the stream is the command's pinned wire format
func runSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit one NDJSON line per point instead of text")
	parallelism := fs.Int("parallelism", 0, "concurrently priced points (0: PARATIME_PARALLELISM or GOMAXPROCS; results are identical at any value)")
	cacheDir := fs.String("cache-dir", "", "persistent manifest directory for incremental re-runs (empty: recompute everything)")
	out := fs.String("out", "", "write the result stream to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallelism < 0 {
		return fmt.Errorf("sweep: -parallelism wants a non-negative integer, got %d", *parallelism)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep wants exactly one sweep file (or '-' for stdin)")
	}
	path := fs.Arg(0)
	data, err := readInput(path)
	if err != nil {
		return err
	}
	doc, err := spec.DecodeSweep(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	manifest, err := buildSweepManifest(*cacheDir)
	if err != nil {
		return err
	}
	if manifest != nil {
		defer manifest.Close()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)

	emit := func(l sweep.Line) error {
		if *asJSON {
			b, err := json.Marshal(l)
			if err != nil {
				return err
			}
			b = append(b, '\n')
			_, err = bw.Write(b)
			return err
		}
		_, err := bw.WriteString(sweepTextLine(l))
		return err
	}
	sum, err := sweep.Run(ctx, doc, sweep.Options{
		Engine:      engine.NewWithCache(0, cachestore.NewMemory(defaultSweepMemoEntries)),
		Parallelism: *parallelism,
		Manifest:    manifest,
	}, emit)
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, sum.String())
	if sum.Errors > 0 {
		return fmt.Errorf("sweep: %d of %d point(s) failed", sum.Errors, sum.Points)
	}
	return nil
}

// sweepTextLine renders one point as a single aligned text line:
// the coordinate ID, then task=WCET pairs (or the point's error).
func sweepTextLine(l sweep.Line) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-48s", l.ID)
	if l.Error != "" {
		fmt.Fprintf(&sb, "  ERROR %s", l.Error)
	} else {
		for _, t := range l.Report.Tasks {
			fmt.Fprintf(&sb, "  %s=%d", t.Name, t.WCET)
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}
