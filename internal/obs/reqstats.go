package obs

import (
	"sync/atomic"
	"time"
)

// ReqStats collects the per-request facts that feed one wide event: how
// long lock acquisition blocked, how the relation caches behaved, how
// many untrusted-store objects the request touched, and how long the
// journal commit and audit enqueue took. A single ReqStats travels with
// the request (an argument from the transport into the request layer,
// then the access-control view) and is written from whatever goroutine
// happens to execute the subsystem, so every field is atomic.
//
// All methods are nil-safe: paths that belong to no request (startup,
// recovery, background events, tests) pass a nil *ReqStats and pay only
// a nil check per call site.
type ReqStats struct {
	lockWaitNs      atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	storeOps        atomic.Int64
	ecalls          atomic.Int64
	ocalls          atomic.Int64
	journalCommitNs atomic.Int64
	auditEnqueueNs  atomic.Int64
	degraded        atomic.Bool
}

// MarkDegraded flags the request as having run while the server was in
// (or was rejected by) degraded read-only mode.
func (s *ReqStats) MarkDegraded() {
	if s == nil {
		return
	}
	s.degraded.Store(true)
}

// Degraded reports whether the request touched degraded mode. Nil-safe.
func (s *ReqStats) Degraded() bool {
	if s == nil {
		return false
	}
	return s.degraded.Load()
}

// AddLockWait accumulates one lock acquisition's blocked time.
func (s *ReqStats) AddLockWait(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.lockWaitNs.Add(int64(d))
}

// AddCacheHit counts one relation-cache hit.
func (s *ReqStats) AddCacheHit() {
	if s == nil {
		return
	}
	s.cacheHits.Add(1)
}

// AddCacheMiss counts one relation-cache miss.
func (s *ReqStats) AddCacheMiss() {
	if s == nil {
		return
	}
	s.cacheMisses.Add(1)
}

// AddStoreOps counts untrusted-store operations (each one crosses the
// enclave boundary — an ocall in a real SGX deployment).
func (s *ReqStats) AddStoreOps(n int64) {
	if s == nil {
		return
	}
	s.storeOps.Add(n)
}

// AddBridgeCalls records the TLS bridge crossings attributed to the
// request's connection window.
func (s *ReqStats) AddBridgeCalls(ecalls, ocalls int64) {
	if s == nil {
		return
	}
	if ecalls > 0 {
		s.ecalls.Add(ecalls)
	}
	if ocalls > 0 {
		s.ocalls.Add(ocalls)
	}
}

// AddJournalCommit accumulates time spent sealing and committing the
// operation's journal intent — including the encryption of its blobs,
// which the commit seals into the record.
func (s *ReqStats) AddJournalCommit(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.journalCommitNs.Add(int64(d))
}

// AddAuditEnqueue accumulates time spent handing events to the audit
// writer (a channel send; only OverflowBlock can make it long).
func (s *ReqStats) AddAuditEnqueue(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.auditEnqueueNs.Add(int64(d))
}

// LockWaitNs returns the accumulated lock wait. Nil-safe.
func (s *ReqStats) LockWaitNs() int64 {
	if s == nil {
		return 0
	}
	return s.lockWaitNs.Load()
}

// CacheHits returns the relation-cache hit count. Nil-safe.
func (s *ReqStats) CacheHits() int64 {
	if s == nil {
		return 0
	}
	return s.cacheHits.Load()
}

// CacheMisses returns the relation-cache miss count. Nil-safe.
func (s *ReqStats) CacheMisses() int64 {
	if s == nil {
		return 0
	}
	return s.cacheMisses.Load()
}

// StoreOps returns the untrusted-store operation count. Nil-safe.
func (s *ReqStats) StoreOps() int64 {
	if s == nil {
		return 0
	}
	return s.storeOps.Load()
}

// BridgeCalls returns the attributed TLS bridge crossings. Nil-safe.
func (s *ReqStats) BridgeCalls() (ecalls, ocalls int64) {
	if s == nil {
		return 0, 0
	}
	return s.ecalls.Load(), s.ocalls.Load()
}

// JournalCommitNs returns the journal commit time. Nil-safe.
func (s *ReqStats) JournalCommitNs() int64 {
	if s == nil {
		return 0
	}
	return s.journalCommitNs.Load()
}

// AuditEnqueueNs returns the audit enqueue time. Nil-safe.
func (s *ReqStats) AuditEnqueueNs() int64 {
	if s == nil {
		return 0
	}
	return s.auditEnqueueNs.Load()
}
