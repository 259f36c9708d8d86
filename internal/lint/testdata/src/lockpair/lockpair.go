// Package lockpair is dvfslint golden-test input for lockorder's pairing
// rule.
package lockpair

import "sync"

// Store fakes the repo's locked caches.
type Store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// Leak locks and never unlocks: flagged.
func (s *Store) Leak(k string, v int) {
	s.mu.Lock() // want lockorder `s.mu.Lock() has no matching s.mu.Unlock()`
	s.data[k] = v
}

// WrongRelease pairs a read lock with the write release: flagged.
func (s *Store) WrongRelease(k string) int {
	s.rw.RLock() // want lockorder `s.rw.RLock() has no matching s.rw.RUnlock()`
	defer s.rw.Unlock()
	return s.data[k]
}

// Get is the canonical deferred pairing: clean.
func (s *Store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[k]
}

// Swap releases inside a deferred closure: clean.
func (s *Store) Swap(k string, v int) int {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	old := s.data[k]
	s.data[k] = v
	return old
}

// Len pairs RLock with RUnlock: clean.
func (s *Store) Len() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return len(s.data)
}

// Acquire shows an in-tree justified suppression: a lock handed to the
// caller.
func (s *Store) Acquire() {
	//lint:allow lockorder lock handed to the caller; Release unlocks it
	s.mu.Lock()
}

// Release completes Acquire's hand-off.
func (s *Store) Release() {
	s.mu.Unlock()
}
