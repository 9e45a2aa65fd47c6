// Package concsafety is the fixture for the CFG-based concurrency
// analyzer: lock pairing across paths.
package concsafety

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// leak: the early-return path exits with the lock still held.
func (c *counter) leak(skip bool) {
	c.mu.Lock() // want `c\.mu acquired here may still be held when the function returns`
	if skip {
		return
	}
	c.mu.Unlock()
}

// earlyReturnClean is the lattice-provenance regression case: a return
// before the Lock must not count as "may be held at exit" — only locks
// this body acquired do.
func (c *counter) earlyReturnClean(skip bool) {
	if skip {
		return
	}
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) deferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// branchUnlock releases on every path through the if.
func (c *counter) branchUnlock(ok bool) {
	c.mu.Lock()
	if ok {
		c.n++
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
}

func (c *counter) doubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want `c\.mu\.Lock while the lock is already held on every path`
	c.mu.Unlock()
}

func unlockUnheld() {
	var mu sync.Mutex
	mu.Unlock() // want `mu\.Unlock without a preceding Lock on any path`
}
