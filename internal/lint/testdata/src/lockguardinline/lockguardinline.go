// Package lockguardinline holds closures that run in the goroutine that
// defines them: called on the spot or deferred, they see the locks held
// where they appear. A go statement's closure does not.
package lockguardinline

import "sync"

// Store is a shared table with an annotated guard.
type Store struct {
	mu sync.Mutex

	jobs map[string]int // guarded by mu
}

// Drain's deferred closure runs before the deferred Unlock.
func (s *Store) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { s.jobs = nil }()
	for k := range s.jobs {
		delete(s.jobs, k)
	}
}

// Put runs a closure on the spot under mu.
func (s *Store) Put(k string, v int) {
	s.mu.Lock()
	func() {
		s.jobs[k] = v
	}()
	s.mu.Unlock()
}

// Spawn's goroutine starts lock-free although the spawner holds mu.
func (s *Store) Spawn(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.jobs[k] = 1
	}()
}
