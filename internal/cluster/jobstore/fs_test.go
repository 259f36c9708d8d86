package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

func openFS(t *testing.T, dir string, capacity int, prefix string) *FS {
	t.Helper()
	s, err := OpenFS(dir, capacity, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestFSPersistsAndReloadsRecords(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 16, "n1-")
	rec := &Record{
		State:    traceio.JobQueued,
		Workload: "resnet50",
		CacheKey: "abc:def",
		Request:  &traceio.StrategyRequest{Workload: "resnet50"},
	}
	id := mustAdd(t, s, rec)
	running := rec.clone()
	running.State = traceio.JobRunning
	running.QueueMillis = 12
	if err := s.Update(running); err != nil {
		t.Fatal(err)
	}

	// Reopen: the record is there, current, and pending (non-terminal).
	s2 := openFS(t, dir, 16, "n1-")
	got, ok := s2.Get(id)
	if !ok {
		t.Fatalf("record %s lost across reopen", id)
	}
	if got.State != traceio.JobRunning || got.Workload != "resnet50" || got.CacheKey != "abc:def" {
		t.Errorf("reloaded record mangled: %+v", got)
	}
	if got.Request == nil || got.Request.Workload != "resnet50" {
		t.Errorf("reloaded record lost its request: %+v", got.Request)
	}
	if got.SavedUnixNano == 0 {
		t.Error("persisted record carries no saved timestamp")
	}
	pending := s2.Pending()
	if len(pending) != 1 || pending[0].ID != id {
		t.Fatalf("Pending = %+v, want exactly %s", pending, id)
	}
	// The ID sequence continues past the recovered maximum.
	next := mustAdd(t, s2, liveRec())
	if next != "n1-j00000002" {
		t.Errorf("next ID after recovery: %s, want n1-j00000002", next)
	}
}

func TestFSTerminalRecordsSurviveAndAreNotPending(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 16, "")
	id := mustAdd(t, s, liveRec())
	rec, _ := s.Get(id)
	done := rec.clone()
	done.State = traceio.JobDone
	done.Result = &traceio.StrategyResponse{Workload: "resnet50"}
	if err := s.Update(done); err != nil {
		t.Fatal(err)
	}

	s2 := openFS(t, dir, 16, "")
	if got := s2.Pending(); len(got) != 0 {
		t.Fatalf("terminal record reported pending: %+v", got)
	}
	got, ok := s2.Get(id)
	if !ok || got.State != traceio.JobDone || got.Result == nil {
		t.Fatalf("terminal result not pollable after reopen: %+v (ok=%v)", got, ok)
	}
}

func TestFSEvictionDeletesFiles(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 2, "")
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, mustAdd(t, s, doneRec()))
	}
	files := listFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("store dir holds %d files %v, want 2", len(files), files)
	}
	for _, f := range files {
		if !strings.HasSuffix(f, ".json") {
			t.Errorf("unexpected file %s", f)
		}
	}
	for _, id := range ids[:3] {
		if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
			t.Errorf("evicted record %s still on disk", id)
		}
	}
	// Remove (queue-full rollback) also unlinks.
	id := mustAdd(t, s, liveRec())
	s.Remove(id)
	if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
		t.Errorf("removed record %s still on disk", id)
	}
}

func TestFSNoTmpFilesLeftAndStrayTmpCleaned(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 8, "")
	for i := 0; i < 4; i++ {
		mustAdd(t, s, doneRec())
	}
	for _, f := range listFiles(t, dir) {
		if strings.HasSuffix(f, ".tmp") {
			t.Errorf("tmp file %s left behind by atomic write", f)
		}
	}
	// A crash between write and rename leaves a .tmp; reopen removes it
	// and keeps the committed records.
	stray := filepath.Join(dir, "j00000099.json.tmp")
	if err := os.WriteFile(stray, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openFS(t, dir, 8, "")
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray .tmp not cleaned on open")
	}
	if got := s2.len(); got != 4 {
		t.Errorf("recovered %d records, want 4", got)
	}
}

func TestFSSkipsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 8, "")
	id := mustAdd(t, s, doneRec())
	_ = s
	// Corrupt JSON, a record whose ID disagrees with its filename, and
	// a non-record file: all skipped, none fatal, none deleted.
	if err := os.WriteFile(filepath.Join(dir, "j00000077.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign, _ := json.Marshal(&Record{ID: "other-j00000001", State: traceio.JobDone})
	if err := os.WriteFile(filepath.Join(dir, "j00000078.json"), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openFS(t, dir, 8, "")
	if got := s2.len(); got != 1 {
		t.Errorf("recovered %d records, want 1 (corrupt/foreign skipped)", got)
	}
	if _, ok := s2.Get(id); !ok {
		t.Errorf("valid record %s lost next to corrupt files", id)
	}
	if _, err := os.Stat(filepath.Join(dir, "j00000077.json")); err != nil {
		t.Error("corrupt file deleted; should be left for inspection")
	}
}

func TestFSPendingSortedByID(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 32, "")
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, mustAdd(t, s, liveRec()))
	}
	s2 := openFS(t, dir, 32, "")
	pending := s2.Pending()
	if len(pending) != len(want) {
		t.Fatalf("pending %d records, want %d", len(pending), len(want))
	}
	for i, rec := range pending {
		if rec.ID != want[i] {
			t.Errorf("pending[%d] = %s, want %s (ID order)", i, rec.ID, want[i])
		}
	}
}

// TestFSUpdatesPersistInIndexOrder pins why Memory persists under its
// mutex: two Updates of one ID reach the disk in the order they reach
// the index. The first write parks in the write seam while a second
// Update runs; afterwards the record OpenFS reloads must be the one
// Get serves. A store that wrote after unlocking would let the newer
// record land first and the parked, older one overwrite it.
func TestFSUpdatesPersistInIndexOrder(t *testing.T) {
	dir := t.TempDir()
	s := openFS(t, dir, 16, "")
	id := mustAdd(t, s, liveRec())

	parked, release, secondWrote := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var writes atomic.Int32
	s.write = func(path string, data []byte) error {
		n := writes.Add(1)
		if n == 1 {
			close(parked)
			<-release
		}
		err := writeAtomic(path, data)
		if n == 2 {
			close(secondWrote)
		}
		return err
	}
	errs := make(chan error, 2)
	go func() { errs <- s.Update(&Record{ID: id, State: traceio.JobRunning, QueueMillis: 5}) }()
	<-parked
	go func() { errs <- s.Update(&Record{ID: id, State: traceio.JobDone, QueueMillis: 5, SearchMillis: 40}) }()
	// The store holds the second Update until the parked write returns,
	// so this wait runs out; it only gives a store that writes after
	// unlocking the time to land the newer record first.
	select {
	case <-secondWrote:
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	want, _ := s.Get(id)
	got, ok := openFS(t, dir, 16, "").Get(id)
	if !ok {
		t.Fatalf("record %s lost across reopen", id)
	}
	got.SavedUnixNano = 0 // stamped on the file only
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk holds %+v, the index serves %+v: the writes reached the disk out of index order", got, want)
	}
}

// TestFSAddEncodesIntoOneBuffer holds the fs store acknowledging one
// inline GPT-3 submission — Add of a queued record carrying the
// compacted trace as a request brings it — under 6 MB: the record is
// encoded into one buffer with the trace copied as it arrived
// (12.8 MB when json.MarshalIndent re-scanned and re-indented it).
func TestFSAddEncodesIntoOneBuffer(t *testing.T) {
	m, err := workload.ByName("gpt3")
	if err != nil {
		t.Fatal(err)
	}
	var indented, trace bytes.Buffer
	if err := traceio.WriteWorkload(&indented, m); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&trace, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	req := &traceio.StrategyRequest{Trace: trace.Bytes(), Search: traceio.SearchSpec{Pop: 200, Gens: 600, Seed: 7}}
	key := traceio.CacheKey(traceio.Fingerprint(m.Trace), req.Search)
	s := openFS(t, t.TempDir(), 64, "")
	defer s.Close()
	n := allocBytes(func() {
		if _, err := s.Add(&Record{State: traceio.JobQueued, Workload: m.Name, CacheKey: key, Request: req}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("FS.Add of an inline GPT-3 request: %d bytes", n)
	if n >= 6_000_000 {
		t.Errorf("FS.Add of an inline GPT-3 request allocated %d bytes, want < 6 MB (one buffer per record, trace copied verbatim)", n)
	}
}

// allocBytes returns the heap bytes one warm call of f allocates.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
