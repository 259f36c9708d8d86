package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"npudvfs/internal/traceio"
)

// FS is the filesystem backend: the Memory index plus one JSON file
// per record under dir, each written by writeAtomic (tmp + rename), so
// a process crash at any instant — SIGKILL, panic, OOM kill — leaves
// either the previous record or the new one, never a torn file. That
// is the whole promise: nothing is fsynced, neither the tmp file nor
// the directory, so after power loss or a kernel crash a renamed
// record may be empty, stale or absent (ROADMAP 4c). OpenFS scans the
// directory, rebuilds the index and the ID sequence, and exposes the
// non-terminal records through Pending so the daemon can re-enqueue
// the jobs a dead process acknowledged but never finished.
type FS struct {
	*Memory
	dir     string
	pending []*Record
	// write is writeAtomic; a test substitutes a function that fails or
	// stops between writeAtomic's steps.
	write func(path string, data []byte) error
}

// OpenFS opens (creating if needed) a store directory. capacity and
// idPrefix behave as in NewMemory. Stray *.tmp files — a crash between
// write and rename — are deleted: the rename never happened, so the
// previous record version (if any) is still authoritative. Files that
// fail to parse are skipped, not deleted, so an operator can inspect
// them.
func OpenFS(dir string, capacity int, idPrefix string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: creating store dir: %w", err)
	}
	f := &FS{Memory: NewMemory(capacity, idPrefix), dir: dir}
	f.write = writeAtomic
	f.Memory.persist = f.persistRecord
	f.Memory.unlink = f.unlinkRecord

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: scanning store dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			//lint:allow errsink boot-time cleanup of a crashed write whose rename never committed; the previous record version is still authoritative, so a failed removal loses nothing
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasSuffix(name, ".json") {
			names = append(names, name)
		}
	}
	// ID order: prefixed sequence numbers are zero-padded, so the
	// lexicographic sort is the submission order.
	sort.Strings(names)

	// Startup-only: OpenFS reads the records and evicts under mu before
	// the store is shared, so nothing contends for it yet.
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
			continue // unparsable: leave on disk for inspection
		}
		if rec.ID+".json" != name {
			continue // foreign or renamed file; not ours to index
		}
		f.seedLocked(&rec)
		if !traceio.IsTerminal(rec.State) {
			f.pending = append(f.pending, &rec)
		}
	}
	f.evictLocked()
	return f, nil
}

func (f *FS) Kind() string { return "fs" }

// Pending returns the recovered non-terminal records, in ID order.
func (f *FS) Pending() []*Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending
}

// Dir returns the store directory.
func (f *FS) Dir() string { return f.dir }

// persistRecord encodes one record and writes its file. Called with
// the index mutex held (Memory hook contract), so there is exactly one
// writer per ID and writeAtomic's fixed tmp name cannot collide.
func (f *FS) persistRecord(rec *Record) error {
	out := rec.clone()
	// Wall-clock stamp for operators reading the store directory; it
	// never feeds back into scheduling or results.
	//lint:allow detrand audited observability timestamp on the persisted record, never read back into behavior
	out.SavedUnixNano = time.Now().UnixNano()
	raw, err := encodeRecord(out)
	if err != nil {
		return fmt.Errorf("jobstore: encoding %s: %w", rec.ID, err)
	}
	return f.write(filepath.Join(f.dir, rec.ID+".json"), append(raw, '\n'))
}

// encodeRecord returns rec as compact JSON. An inline trace is copied
// as it arrived: Store's contract makes it a validated JSON value, and
// json.Marshal would scan all of it again only to compact and
// HTML-escape it, tens of times the cost of the copy on an MB-scale
// trace (DESIGN.md §10). For a compact trace with no HTML-escapable
// byte — every registry trace — the result is byte-identical to
// json.Marshal(rec). A record with a trace is built in one buffer with
// room for persistRecord's newline, so it is never copied again.
func encodeRecord(rec *Record) ([]byte, error) {
	req := rec.Request
	if req == nil || len(req.Trace) == 0 {
		return json.Marshal(rec)
	}
	head := *rec
	head.Request = nil
	raw, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	search, err := json.Marshal(&req.Search)
	if err != nil {
		return nil, err
	}
	var name []byte
	if req.Workload != "" {
		if name, err = json.Marshal(req.Workload); err != nil {
			return nil, err
		}
	}
	// 64 bytes hold the request's keys and punctuation and
	// persistRecord's newline.
	buf := make([]byte, 0, len(raw)+len(name)+len(req.Trace)+len(search)+64)
	buf = append(buf, raw[:len(raw)-1]...) // drop the closing brace
	buf = append(buf, `,"request":{`...)
	if name != nil {
		buf = append(buf, `"workload":`...)
		buf = append(buf, name...)
		buf = append(buf, ',')
	}
	buf = append(buf, `"trace":`...)
	buf = append(buf, req.Trace...)
	buf = append(buf, `,"search":`...)
	buf = append(buf, search...)
	return append(buf, "}}"...), nil
}

// writeAtomic is the package's only write to disk
// (TestWriteAtomicIsTheOnlyDiskWrite): data goes to "<path>.tmp", which is then renamed onto path.
// A reader — OpenFS after a process crash — therefore sees the old
// file or the new one, and a leftover *.tmp means the rename never
// happened. Nothing is fsynced, so this does not hold across power
// loss (see FS).
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("jobstore: writing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

func (f *FS) unlinkRecord(id string) {
	//lint:allow errsink a failed unlink resurrects an already-terminal record at next boot, which recovery serves from disk and never re-runs — safe, just unevicted
	_ = os.Remove(filepath.Join(f.dir, id+".json"))
}
