// Package jobstore is dvfsd's pluggable job store: the index of every
// 202-acknowledged strategy job, behind one Store interface with two
// backends. Memory preserves the original single-process behavior
// (jobs die with the daemon); FS persists every record with atomic
// tmp+rename writes and recovers them on boot, so acknowledged jobs
// survive a process crash or restart (DESIGN.md §12).
//
// Both backends share the retention policy the serving layer depends
// on: live (non-terminal) jobs are never evicted — a client can always
// poll a job it submitted — while terminal jobs queue on a FIFO of
// eviction candidates and are dropped oldest-first once the store
// exceeds its capacity. Eviction is amortized O(1) per insert.
package jobstore

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
)

// Record is the stored form of one job. Records handed out by Get are
// shared snapshots: treat them as read-only (the store replaces the
// pointer wholesale on every Update, it never mutates in place).
type Record struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Workload string `json:"workload"`
	CacheKey string `json:"cache_key,omitempty"`
	// Cached marks jobs answered from the strategy cache (born
	// terminal; no search ran).
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`

	QueueMillis  units.Millis `json:"queue_ms"`
	SearchMillis units.Millis `json:"search_ms"`

	// Result is set once State is done.
	Result *traceio.StrategyResponse `json:"result,omitempty"`

	// SavedUnixNano is stamped by the fs backend on each write — an
	// observability field for operators inspecting a store directory,
	// never read back into behavior.
	SavedUnixNano int64 `json:"saved_unix_nano,omitempty"`

	// Request is the original submission body. Recovery re-enqueues a
	// non-terminal record by re-resolving it, so the fs backend can
	// finish jobs a crashed daemon acknowledged but never ran. Nil for
	// cache-hit jobs — there is nothing to re-run. It is the last field
	// so that encodeRecord, which writes it by hand, emits the bytes
	// json.Marshal would.
	Request *traceio.StrategyRequest `json:"request,omitempty"`
}

// Status renders the record as the wire JobStatus.
func (r *Record) Status() *traceio.JobStatus {
	return &traceio.JobStatus{
		ID:           r.ID,
		State:        r.State,
		Workload:     r.Workload,
		Cached:       r.Cached,
		Error:        r.Error,
		QueueMillis:  r.QueueMillis,
		SearchMillis: r.SearchMillis,
		Result:       r.Result,
	}
}

// clone returns a shallow copy: scalar fields are private to the copy,
// Request/Result pointers are shared and immutable by contract (the
// same contract the strategy cache already imposes on responses).
func (r *Record) clone() *Record {
	c := *r
	return &c
}

// Store is the durable job index behind the dvfsd serving layer.
// Implementations must be safe for concurrent use.
//
// A record's Request.Trace is a JSON value its producer has already
// validated: the server only stores requests StrategyRequest.Resolve
// accepted, and Resolve parses the whole trace. The fs backend copies
// those bytes into the record file without scanning them again.
type Store interface {
	// Add assigns the next job ID (writing it into rec.ID), persists
	// the record and returns the ID. A record added in a terminal state
	// (cache hit) is immediately an eviction candidate. A non-nil error
	// means durability is degraded, not that the job was lost: the
	// record is always serveable from memory.
	Add(rec *Record) (string, error)
	// Update persists a state transition for an existing record. The
	// first transition into a terminal state enqueues the record for
	// eviction. Updating an unknown (evicted/removed) ID is a no-op.
	Update(rec *Record) error
	// Get returns the current record snapshot. Treat it as read-only.
	Get(id string) (*Record, bool)
	// Remove forgets a job that never reached a worker (queue-full
	// rejection after the ID was assigned).
	Remove(id string)
	// Pending returns the non-terminal records recovered at open, in ID
	// order — the jobs a previous process acknowledged but never
	// finished. Memory stores have none.
	Pending() []*Record
	// Kind names the backend ("memory", "fs") for /v1/cluster.
	Kind() string
	Close() error
}

// Memory is the in-process backend: the original dvfsd job map,
// refactored behind the Store interface. It also serves as the index
// core of the FS backend, which attaches persist/unlink hooks.
type Memory struct {
	mu     sync.Mutex
	prefix string
	next   uint64
	cap    int
	m      map[string]*entry
	// terminal holds IDs that reached a terminal state, in completion
	// order; head indexes the next eviction candidate. Entries for
	// already-removed IDs are skipped lazily.
	terminal []string
	head     int

	// FS hooks; nil in pure memory mode. Called with mu held, so disk
	// writes serialize with the index they mirror.
	persist func(rec *Record) error
	unlink  func(id string)
}

type entry struct {
	rec *Record
	// noted guards the terminal FIFO against double-entry: Update may
	// be called on an already-terminal record (e.g. a re-persist), but
	// each job may occupy at most one FIFO slot.
	noted bool
}

// NewMemory returns an in-process store. capacity bounds retained jobs
// (live jobs can exceed it; see Store). idPrefix, usually
// "<node-id>-", namespaces job IDs so they are unique cluster-wide;
// "" preserves the single-node "j%08d" format.
func NewMemory(capacity int, idPrefix string) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{prefix: idPrefix, cap: capacity, m: make(map[string]*entry)}
}

func (s *Memory) Kind() string { return "memory" }

func (s *Memory) Close() error { return nil }

func (s *Memory) Pending() []*Record { return nil }

func (s *Memory) Add(rec *Record) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("%sj%08d", s.prefix, s.next)
	rec.ID = id
	e := &entry{rec: rec.clone()}
	s.m[id] = e
	if traceio.IsTerminal(rec.State) {
		e.noted = true
		s.terminal = append(s.terminal, id)
	}
	// Persist under mu so records on disk never reorder against the
	// index (TestFSUpdatesPersistInIndexOrder); eviction unlinks under
	// mu for the same reason.
	err := s.persistLocked(e.rec)
	s.evictLocked()
	return id, err
}

func (s *Memory) Update(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[rec.ID]
	if !ok {
		return nil
	}
	e.rec = rec.clone()
	if traceio.IsTerminal(rec.State) && !e.noted {
		e.noted = true
		s.terminal = append(s.terminal, rec.ID)
	}
	// Persist and evict under mu, as in Add.
	err := s.persistLocked(e.rec)
	s.evictLocked()
	return err
}

func (s *Memory) Get(id string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		return nil, false
	}
	return e.rec, true
}

func (s *Memory) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		return
	}
	delete(s.m, id)
	if s.unlink != nil {
		// Unlink under mu keeps the on-disk set a subset of the index.
		s.unlink(id)
	}
}

func (s *Memory) persistLocked(rec *Record) error {
	if s.persist == nil {
		return nil
	}
	return s.persist(rec)
}

// evictLocked pops terminal jobs oldest-first until the store fits its
// bound; if everything is live the store grows instead. The drained
// prefix is compacted away once it dominates the slice so the FIFO's
// memory stays proportional to retained jobs.
func (s *Memory) evictLocked() {
	for len(s.m) > s.cap && s.head < len(s.terminal) {
		id := s.terminal[s.head]
		if _, ok := s.m[id]; ok {
			delete(s.m, id)
			if s.unlink != nil {
				s.unlink(id)
			}
		}
		s.head++
	}
	if s.head > 64 && s.head*2 >= len(s.terminal) {
		s.terminal = append(s.terminal[:0], s.terminal[s.head:]...)
		s.head = 0
	}
}

// len reports retained records (tests and /v1/cluster).
func (s *Memory) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// seedLocked installs a recovered record without persisting (it is
// already on disk) — FS boot path only.
func (s *Memory) seedLocked(rec *Record) {
	e := &entry{rec: rec}
	s.m[rec.ID] = e
	if traceio.IsTerminal(rec.State) {
		e.noted = true
		s.terminal = append(s.terminal, rec.ID)
	}
	if n, ok := idNumber(s.prefix, rec.ID); ok && n > s.next {
		s.next = n
	}
}

// idNumber parses the numeric suffix of a job ID carrying the given
// prefix; recovery continues the sequence past the highest ID seen so
// restarted daemons never re-issue an acknowledged ID.
func idNumber(prefix, id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok || len(rest) < 2 || rest[0] != 'j' {
		return 0, false
	}
	n, err := strconv.ParseUint(rest[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
