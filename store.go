package skybench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the multi-collection serving facade: one handle hosting any
// number of named Collections — each an immutable Dataset, a live
// stream source or a remote cluster — over a single shared Engine (one
// worker pool, one context free-list) so concurrent queries across
// every collection share warm scratch and one pool of threads, from
// which each run leases its own team.
//
//	st := skybench.NewStore(0)
//	defer st.Close()
//	hotels, _ := st.Attach("hotels", ds, skybench.CollectionOptions{})
//	res, err := hotels.Run(ctx, skybench.Query{SkybandK: 2})
//
// A Store is safe for concurrent use: attach, drop, and query from any
// number of goroutines. Dropping or closing marks the affected
// collections closed; queries already holding a *Collection fail with
// ErrClosed instead of touching freed state.
type Store struct {
	eng    *Engine
	ownEng bool

	// Admission control (StoreOptions.MaxInflight/MaxQueue). tokens is a
	// counting semaphore that is never closed — shutdown is signaled by
	// closedCh instead, so a Run racing Close can never hit a
	// send-on-closed-channel panic; it deterministically observes
	// ErrClosed.
	tokens     chan struct{}
	maxQueue   int
	defTimeout time.Duration
	waiters    atomic.Int64
	closedCh   chan struct{}

	mu     sync.RWMutex
	cols   map[string]*Collection
	closed bool
}

// StoreOptions configures a Store's engine and its failure-containment
// policies. The zero value matches NewStore(0): all CPUs, no admission
// bound, no default deadline.
type StoreOptions struct {
	// Threads is the shared Engine's thread budget (≤ 0 selects all
	// usable CPUs).
	Threads int
	// MaxInflight bounds how many Collection.Run calls, across every
	// collection of the Store, may execute concurrently. ≤ 0 means
	// unlimited.
	MaxInflight int
	// MaxQueue bounds how many Run calls may wait for an inflight slot
	// once MaxInflight are running; a call beyond the bound fails at
	// once with ErrOverloaded instead of queuing without limit. A queued
	// call waits no longer than its query's deadline. ≤ 0 rejects as
	// soon as MaxInflight are running. Meaningless unless MaxInflight > 0.
	MaxQueue int
	// DefaultTimeout, when > 0, is the per-query deadline applied to
	// every Run whose context does not already carry one; it bounds the
	// wait for admission too. Exceeding it fails the query with an error
	// wrapping both ErrCanceled and ErrDeadlineExceeded. Collections can
	// override it via CollectionOptions.DefaultTimeout.
	DefaultTimeout time.Duration
}

// NewStore creates a Store whose shared Engine has the given thread
// budget (≤ 0 selects all usable CPUs).
func NewStore(threads int) *Store {
	return NewStoreWithOptions(StoreOptions{Threads: threads})
}

// NewStoreWithEngine creates a Store serving through an existing Engine
// (shared with whatever other load it carries). The caller keeps
// ownership: Store.Close does not close it.
func NewStoreWithEngine(eng *Engine) *Store {
	return newStore(StoreOptions{}, eng)
}

// NewStoreWithOptions creates a Store with explicit admission and
// deadline policies.
func NewStoreWithOptions(opts StoreOptions) *Store {
	return newStore(opts, nil)
}

// newStore serves through eng, or through an Engine of its own with
// opts.Threads when eng is nil.
func newStore(opts StoreOptions, eng *Engine) *Store {
	s := &Store{
		cols:       make(map[string]*Collection),
		closedCh:   make(chan struct{}),
		defTimeout: opts.DefaultTimeout,
		eng:        eng,
	}
	if eng == nil {
		s.eng = NewEngine(opts.Threads)
		s.ownEng = true
	}
	if opts.MaxInflight > 0 {
		s.tokens = make(chan struct{}, opts.MaxInflight)
		if opts.MaxQueue > 0 {
			s.maxQueue = opts.MaxQueue
		}
	}
	return s
}

// Engine returns the Store's shared Engine.
func (s *Store) Engine() *Engine { return s.eng }

// Inflight returns the number of queries currently holding an admission
// slot. Always 0 when admission is unbounded (MaxInflight ≤ 0);
// CollectionStats.Inflight counts executing queries per collection
// either way.
func (s *Store) Inflight() int {
	if s.tokens == nil {
		return 0
	}
	return len(s.tokens)
}

// QueueDepth returns the number of queries waiting for an
// admission slot (bounded by StoreOptions.MaxQueue). Always 0 when
// admission is unbounded.
func (s *Store) QueueDepth() int {
	n := s.waiters.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Attach registers ds as a named collection and returns its handle.
// The Dataset is adopted as-is (immutable, shareable); opts selects
// caching and the default deadline. Attaching a name twice fails with
// ErrDuplicateCollection.
func (s *Store) Attach(name string, ds *Dataset, opts CollectionOptions) (*Collection, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil Dataset", ErrBadDataset)
	}
	c := s.newCollection(name, opts)
	c.back = &staticBacking{local: local{s.eng}, snap: &colSnapshot{ds: ds}}
	if err := s.add(name, c); err != nil {
		return nil, err
	}
	return c, nil
}

// AttachStream registers a live source (typically a
// *stream.SkylineIndex) as a named collection. Queries answer for the
// source's full live point set at its current membership epoch, and
// cached results invalidate automatically when the epoch advances. A
// query the source already maintains the answer to (a BandSource, and a
// query with its preferences, a band width within its own, Hybrid, QFlow
// or Auto, no ablation, no progressive delivery) is read from it; for
// every other query the live set is materialized — at most once per
// membership epoch, and only then — and the engine runs over it.
func (s *Store) AttachStream(name string, src StreamSource, opts CollectionOptions) (*Collection, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: nil StreamSource", ErrBadDataset)
	}
	c := s.newCollection(name, opts)
	c.back = newStreamBacking(s.eng, src)
	if err := s.add(name, c); err != nil {
		return nil, err
	}
	return c, nil
}

// newCollection builds a collection shell with normalized options.
func (s *Store) newCollection(name string, opts CollectionOptions) *Collection {
	cacheCap := opts.CacheCapacity
	if cacheCap == 0 {
		cacheCap = defaultCacheCapacity
	}
	timeout := opts.DefaultTimeout
	if timeout == 0 {
		timeout = s.defTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	c := &Collection{
		name:        name,
		owner:       s,
		timeout:     timeout,
		closeOnDrop: opts.CloseOnDrop,
	}
	if cacheCap > 0 {
		c.cacheCap = cacheCap
		c.entries.m = make(map[fingerprint]cacheEntry)
		c.stale.m = make(map[fingerprint]cacheEntry)
	}
	return c
}

// add registers the collection under its name.
func (s *Store) add(name string, c *Collection) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: Store", ErrClosed)
	}
	if _, ok := s.cols[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateCollection, name)
	}
	s.cols[name] = c
	return nil
}

// Collection returns the named collection, or ErrUnknownCollection.
func (s *Store) Collection(name string) (*Collection, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("%w: Store", ErrClosed)
	}
	c, ok := s.cols[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCollection, name)
	}
	return c, nil
}

// Names returns the attached collection names in sorted (ascending
// lexicographic) order — a stable enumeration that listing endpoints
// and metrics scrapes can rely on across calls.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.cols))
	for name := range s.cols {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Drop detaches the named collection; subsequent queries on handles to
// it fail with ErrClosed. The backing Dataset or stream source is
// untouched (it belongs to the caller) unless the collection was
// attached with CloseOnDrop.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%w: Store", ErrClosed)
	}
	c, ok := s.cols[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownCollection, name)
	}
	delete(s.cols, name)
	c.dropped.Store(true)
	s.mu.Unlock()
	c.closeSource() // outside the lock: a source Close may take its write lock
	return nil
}

// Close drops every collection and, when the Store owns its Engine
// (NewStore), closes it. In-flight queries must have completed, as for
// Engine.Close; queries run after (or racing) Close, and queries queued
// for admission when it comes, fail with ErrClosed — never a panic.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closedCh)
	var owned []*Collection
	for name, c := range s.cols {
		c.dropped.Store(true)
		owned = append(owned, c)
		delete(s.cols, name)
	}
	if s.ownEng {
		s.eng.Close()
	}
	s.mu.Unlock()
	for _, c := range owned {
		c.closeSource()
	}
}

// admit takes one of the Store's inflight slots for a query (a no-op
// when admission is unbounded). With every slot taken the query queues
// for one while fewer than MaxQueue others wait — until a slot frees,
// the Store closes, or ctx is done — and beyond the bound it fails at
// once with ErrOverloaded. A closed Store fails with ErrClosed. After a
// nil error the caller must release.
func (s *Store) admit(ctx context.Context) error {
	select {
	case <-s.closedCh:
		return fmt.Errorf("%w: Store", ErrClosed)
	default:
	}
	if s.tokens == nil {
		return nil
	}
	select {
	case s.tokens <- struct{}{}:
		return nil
	default:
	}
	if int(s.waiters.Add(1)) > s.maxQueue {
		s.waiters.Add(-1)
		return fmt.Errorf("%w: %d queries running and %d queued", ErrOverloaded, cap(s.tokens), s.maxQueue)
	}
	defer s.waiters.Add(-1)
	select {
	case s.tokens <- struct{}{}:
		return nil
	case <-s.closedCh:
		return fmt.Errorf("%w: Store", ErrClosed)
	case <-ctx.Done():
		return canceledErr(ctx.Err())
	}
}

// release returns the slot admit took.
func (s *Store) release() {
	if s.tokens != nil {
		<-s.tokens
	}
}
