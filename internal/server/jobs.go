package server

import (
	"strings"
	"time"

	"npudvfs/internal/cluster/jobstore"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// job is one strategy-generation request moving through the queue.
// Every field is set before the queue send and never mutated after:
// the job's mutable state — the queued → running → terminal machine —
// lives in the job store (internal/cluster/jobstore), which is what
// the HTTP handlers read. That split is what makes the fs backend
// possible: each state transition is one store Update, and a record on
// disk is always a complete, serveable snapshot.
type job struct {
	id       string
	workload string
	// fingerprint is the trace digest computed at submission (or
	// recovery); cacheKey is derived from it and the response echoes it.
	fingerprint string
	cacheKey    string
	spec        traceio.SearchSpec
	// model is the resolved workload; set at submission (or recovery),
	// read by the worker.
	model *workload.Model
	// req is the original submission body, persisted with the record so
	// a restarted daemon can re-resolve and re-run the job.
	req       *traceio.StrategyRequest
	submitted time.Time
}

// jobStatus reads one job's current status from the store.
func (s *Server) jobStatus(id string) (*traceio.JobStatus, bool) {
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, false
	}
	return rec.Status(), true
}

// storeUpdate persists a state transition, counting (but not
// propagating) durability errors: the record is always current in
// memory, so a full disk degrades persistence, not serving. A terminal
// record wakes every parked wait once it is written, and the store
// call is made before s.mu is taken, so no lock spans it.
func (s *Server) storeUpdate(rec *jobstore.Record) {
	if err := s.store.Update(rec); err != nil {
		s.met.storeErrors.inc()
	}
	if traceio.IsTerminal(rec.State) {
		s.mu.Lock()
		close(s.settled)
		s.settled = make(chan struct{})
		s.mu.Unlock()
	}
}

// millis converts a measured duration to the wire unit.
func millis(d time.Duration) units.Millis {
	return units.Millis(float64(d) / float64(time.Millisecond))
}

// nodePrefix extracts the node ID from a cluster job ID
// ("n1-j00000042" → "n1"). Single-node IDs ("j00000042") have none.
func nodePrefix(id string) string {
	i := strings.LastIndex(id, "-j")
	if i <= 0 {
		return ""
	}
	return id[:i]
}
