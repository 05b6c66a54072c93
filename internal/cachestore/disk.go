package cachestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Disk file format: every entry is one content-addressed file named
// sha256(key) + ".pce" holding a self-verifying record. The full key is
// stored in the record, so a filename collision (or a renamed file) can
// never serve a value under the wrong key, and the payload digest makes
// truncation or bit rot a miss instead of a wrong answer.
const (
	diskMagic   = "PTCACHE\x00"
	diskVersion = 1
	diskExt     = ".pce" // "paratime cache entry"
)

// maxDiskKeyLen bounds the stored key; longer keys are declined (the
// fingerprint and PrepareKey keys in this codebase are far shorter).
const maxDiskKeyLen = 1 << 20

// Disk is a persistent content-addressed cache of []byte payloads in one
// flat directory. Values that are not []byte are declined (counted as
// Puts, never stored): live analysis objects cannot round-trip through a
// file, and the deterministic pipeline makes recomputing them safe.
// Every read is integrity-checked; corrupt, truncated, foreign or
// version-mismatched files are treated as misses and removed.
type Disk struct {
	dir   string
	mu    sync.Mutex
	stats Stats
}

// NewDisk opens (creating if needed) a disk backend rooted at dir.
// Entries written by previous processes are served after the usual
// per-read integrity check.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	d := &Disk{dir: dir}
	// Count pre-existing entries for the stats surface; Get verifies
	// each one's integrity when it is actually read.
	glob, err := filepath.Glob(filepath.Join(dir, "*"+diskExt))
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	for _, p := range glob {
		if info, err := os.Stat(p); err == nil {
			d.stats.Entries++
			d.stats.Bytes += info.Size()
		}
	}
	d.stats.Peak = d.stats.Entries
	return d, nil
}

// Dir returns the cache directory.
//
//paralint:testonly the CLI's serve tests check where -cache-dir roots the disk tier
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+diskExt)
}

// encode renders one self-verifying entry record.
func encode(key string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(diskMagic)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], diskVersion)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	buf.Write(u32[:])
	buf.WriteString(key)
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(payload)))
	buf.Write(u64[:])
	buf.Write(payload)
	return buf.Bytes()
}

// decode parses and verifies an entry record against the key it was
// looked up under. Any mismatch — magic, version, key, length, digest —
// fails decoding and is treated by Get as a miss.
func decode(key string, data []byte) ([]byte, bool) {
	rest := data
	take := func(n int) ([]byte, bool) {
		if len(rest) < n {
			return nil, false
		}
		out := rest[:n]
		rest = rest[n:]
		return out, true
	}
	magic, ok := take(len(diskMagic))
	if !ok || string(magic) != diskMagic {
		return nil, false
	}
	ver, ok := take(4)
	if !ok || binary.LittleEndian.Uint32(ver) != diskVersion {
		return nil, false
	}
	klen, ok := take(4)
	if !ok {
		return nil, false
	}
	k, ok := take(int(binary.LittleEndian.Uint32(klen)))
	if !ok || string(k) != key {
		return nil, false
	}
	sum, ok := take(sha256.Size)
	if !ok {
		return nil, false
	}
	plen, ok := take(8)
	if !ok {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(plen)
	if uint64(len(rest)) != n {
		return nil, false
	}
	if got := sha256.Sum256(rest); !bytes.Equal(got[:], sum) {
		return nil, false
	}
	return rest, true
}

// Get returns the []byte payload cached under key. A missing, corrupt or
// version-mismatched file is a miss; bad files are removed so they are
// not re-parsed on every lookup.
func (d *Disk) Get(key string) (any, bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	payload, ok := decode(key, data)
	if !ok {
		_ = os.Remove(path)
		d.count(func(s *Stats) {
			s.Misses++
			if s.Entries > 0 {
				s.Entries--
			}
			s.Bytes -= int64(len(data))
		})
		return nil, false
	}
	d.count(func(s *Stats) { s.Hits++ })
	return payload, true
}

// Put stores a []byte payload under key via an atomic temp-file rename;
// non-[]byte and oversized-key values are declined.
func (d *Disk) Put(key string, val any) {
	payload, ok := val.([]byte)
	if !ok || len(key) > maxDiskKeyLen {
		d.count(func(s *Stats) { s.Puts++ })
		return
	}
	path := d.path(key)
	record := encode(key, payload)
	prev := int64(-1)
	if info, err := os.Stat(path); err == nil {
		prev = info.Size()
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		d.count(func(s *Stats) { s.Puts++ })
		return
	}
	_, werr := tmp.Write(record)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		_ = os.Remove(tmp.Name())
		d.count(func(s *Stats) { s.Puts++ })
		return
	}
	d.count(func(s *Stats) {
		s.Puts++
		if prev < 0 {
			s.Entries++
			if s.Entries > s.Peak {
				s.Peak = s.Entries
			}
		} else {
			s.Bytes -= prev
		}
		s.Bytes += int64(len(record))
	})
}

// Stats returns the backend's counters. Entries and Bytes count whole
// entry files (headers included).
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Reset removes every cache entry file while keeping the statistics
// counters.
func (d *Disk) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	glob, _ := filepath.Glob(filepath.Join(d.dir, "*"+diskExt))
	for _, p := range glob {
		if strings.HasSuffix(p, diskExt) {
			_ = os.Remove(p)
		}
	}
	d.stats.Entries = 0
	d.stats.Bytes = 0
}

// Close is a no-op: entries persist for the next process.
func (d *Disk) Close() error { return nil }

func (d *Disk) count(f func(*Stats)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(&d.stats)
}
