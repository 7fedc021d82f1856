// Package lockguardok holds the fixed forms: every guarded access is
// dominated by its lock or covered by an entry-held convention.
package lockguardok

import "sync"

// Store is a shared table with annotated guards.
type Store struct {
	mu sync.Mutex
	rw sync.RWMutex

	jobs map[string]int // guarded by mu
	hits int            // guarded by rw
}

// NewStore builds a store; the fresh local is exempt until it escapes.
func NewStore() *Store {
	s := &Store{}
	s.jobs = map[string]int{}
	return s
}

func (s *Store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[k]
}

func (s *Store) Put(k string, v int) {
	s.mu.Lock()
	s.jobs[k] = v
	s.mu.Unlock()
}

func (s *Store) Hits() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.hits
}

func (s *Store) Bump() {
	s.rw.Lock()
	s.hits++
	s.rw.Unlock()
}

// putLocked inserts; the Locked suffix marks callers as holding mu.
func (s *Store) putLocked(k string, v int) {
	s.jobs[k] = v
}

// flush drains the table. Callers hold mu.
func (s *Store) flush() {
	for k := range s.jobs {
		delete(s.jobs, k)
	}
}

// size returns the table's length. Callers hold mu.
func (s *Store) size() int {
	return len(s.jobs)
}

func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	s.putLocked("seed", 1)
	_ = s.size()
}
