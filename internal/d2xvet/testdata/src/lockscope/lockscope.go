// Fixture for the lockscope pass: blocking operations and nested
// acquisition inside mutex-held regions, plus the clean shapes
// (release-then-block, condition variables).
package lockscope

import (
	"sync"
	"time"
)

type shard struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func sleeps(s *shard) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while s.mu is held"
	s.mu.Unlock()
}

func sends(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want "channel send while s.mu is held"
}

func receives(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while s.mu is held"
}

func selects(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select while s.mu is held"
	case <-s.ch:
	default:
	}
}

func nests(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "acquires b.mu while a.mu is held"
	b.mu.Unlock()
	a.mu.Unlock()
}

func waits(s *shard, wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want "sync.WaitGroup.Wait while s.mu is held"
	s.mu.Unlock()
}

// Clean: blocking work happens after the release.
func releasesFirst(s *shard) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
	time.Sleep(time.Millisecond)
}

// Clean: waiting on a condition variable with its lock held is the
// sync.Cond contract, not a lock-scope violation.
func condWait(s *shard, c *sync.Cond) {
	c.L.Lock()
	for s.n == 0 {
		c.Wait()
	}
	s.n--
	c.L.Unlock()
}

// Clean: re-acquiring the same lock expression in a sibling branch is
// not a nested acquisition.
func branches(s *shard, cond bool) {
	if cond {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		s.n--
		s.mu.Unlock()
	}
}

// Clean: a goroutine body runs without the caller's locks, and its own
// region is tracked separately.
func spawns(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}
