package core

import (
	"errors"
	"fmt"
	"time"

	"segshare/internal/audit"
	"segshare/internal/journal"
	"segshare/internal/rollback"
)

// This file makes every logical operation atomic-on-recovery. A mutation
// runs inside mutate(), which stages all putBlob/deleteBlob calls in an
// opCtx instead of issuing them; when the operation's function returns
// successfully, the set is committed as one journal intent — the commit
// seals every staged blob once, for its final name, straight into the
// record — installed on the backends verbatim from the record, and
// marked applied. A crash or
// fault between any two backend writes is repaired by recoverJournal:
// committed intents are re-applied (roll forward), an intent torn during
// its commit is discarded (roll back). The journal is always on: every
// write of the trusted file manager goes through this path, except the
// guard rebind after a CA-authorized restore (backup.go).

// stagedPut is one buffered blob write. Header and body stay plaintext
// (the encoded rollback header and the logical body) so the operation can
// re-read its own writes; the intent commit seals them once. body is the
// caller's slice, not a copy: callers hand over freshly encoded buffers
// and never touch them again.
type stagedPut struct {
	ns     *namespace
	name   string
	hdrEnc []byte
	body   []byte
	// needsToken marks a namespace-root write: the root-guard commit (and
	// the token it yields) is deferred to apply time, so an aborted
	// operation never advances the guard past the stored root.
	needsToken bool
}

type stagedDel struct {
	ns   *namespace
	name string
}

// opCtx is one in-flight logical operation: the staged write/delete set
// plus compensation hooks. It hangs off the per-request view running the
// mutation (fileManager.tx); at most one exists at a time, because the
// lock manager serializes mutations (locks.go, the exclusive plan).
type opCtx struct {
	op string

	order    []string
	puts     map[string]*stagedPut
	delOrder []string
	dels     map[string]*stagedDel

	// onCommit runs after the operation is durably applied; onAbort runs
	// when it failed before its intent committed. Used for dedup refcount
	// compensation, which cannot ride in the journal (Release is not
	// idempotent).
	onCommit []func()
	onAbort  []func()
}

func (tx *opCtx) stagePut(ns *namespace, name string, hdr *rollback.Header, body []byte, needsToken bool) {
	key := treeID(ns, name)
	if _, ok := tx.dels[key]; ok {
		// Delete-then-recreate within one operation: the recreate wins.
		delete(tx.dels, key)
	}
	var hdrEnc []byte
	if hdr != nil {
		hdrEnc = hdr.Encode()
	}
	if _, ok := tx.puts[key]; !ok {
		tx.order = append(tx.order, key)
	}
	tx.puts[key] = &stagedPut{
		ns:         ns,
		name:       name,
		hdrEnc:     hdrEnc,
		body:       body,
		needsToken: needsToken,
	}
}

func (tx *opCtx) stageDelete(ns *namespace, name string) {
	key := treeID(ns, name)
	// A staged put is dropped rather than shadowed — but the backend may
	// hold a pre-existing object under the same name (put-then-delete of
	// an existing file), so the delete is recorded regardless.
	delete(tx.puts, key)
	if _, ok := tx.dels[key]; !ok {
		tx.delOrder = append(tx.delOrder, key)
	}
	tx.dels[key] = &stagedDel{ns: ns, name: name}
}

// staged returns the staged state of a name: the buffered put, or
// deleted=true when a staged delete shadows the backend object.
func (tx *opCtx) staged(ns *namespace, name string) (sp *stagedPut, deleted bool) {
	key := treeID(ns, name)
	if sp, ok := tx.puts[key]; ok {
		return sp, false
	}
	if _, ok := tx.dels[key]; ok {
		return nil, true
	}
	return nil, false
}

// records converts the staged set into journal intent records: writes in
// first-staged order, each carrying the sealer that seals it for its
// final name straight into the record when the intent commits, then
// deletes. A namespace root is the exception: its guard token is assigned
// at apply time, so it travels as plaintext (header ‖ body) and
// applyIntent seals it.
func (fm *fileManager) records(tx *opCtx) (writes []journal.Write, dels []journal.Delete, err error) {
	for _, key := range tx.order {
		sp, ok := tx.puts[key]
		if !ok {
			continue
		}
		w := journal.Write{Store: sp.ns.kind, Name: sp.name, NeedsToken: sp.needsToken}
		if sp.needsToken {
			w.Body = append(append([]byte(nil), sp.hdrEnc...), sp.body...)
		} else if w.Size, w.Seal, err = fm.sealer(sp.ns, sp.name, sp.hdrEnc, sp.body); err != nil {
			return nil, nil, err
		}
		writes = append(writes, w)
	}
	for _, key := range tx.delOrder {
		if d, ok := tx.dels[key]; ok {
			dels = append(dels, journal.Delete{Store: d.ns.kind, Name: d.name})
		}
	}
	return writes, dels, nil
}

func (tx *opCtx) runCommitHooks() {
	for _, fn := range tx.onCommit {
		fn()
	}
}

func (tx *opCtx) runAbortHooks() {
	for i := len(tx.onAbort) - 1; i >= 0; i-- {
		tx.onAbort[i]()
	}
}

// staging reports whether a mutation is in flight on this view: its
// writes buffer for a journal intent (the putBlob/deleteBlob chokepoints
// stage them), and its reads see them first.
func (fm *fileManager) staging() bool {
	return fm.tx != nil
}

// empty reports whether the operation has staged no write and no delete
// yet, so its reads still see exactly the committed state.
func (tx *opCtx) empty() bool {
	return len(tx.order) == 0 && len(tx.delOrder) == 0
}

// afterOp schedules fn for after the operation durably commits.
func (fm *fileManager) afterOp(fn func()) {
	fm.tx.onCommit = append(fm.tx.onCommit, fn)
}

// onOpAbort schedules fn for when the operation aborts before its intent
// committed.
func (fm *fileManager) onOpAbort(fn func()) {
	fm.tx.onAbort = append(fm.tx.onAbort, fn)
}

// mutate runs one logical operation. Re-entrant calls join the active
// operation (directory moves recurse through movePath/removePath). fn's
// writes stage into an intent that commits before any backend object
// changes.
func (fm *fileManager) mutate(op string, fn func() error) error {
	if fm.tx != nil {
		return fn()
	}
	// Cancellation is honored here and immediately before the intent
	// commit below — and nowhere later. A client that disconnects before
	// its mutation becomes durable saves the work; once the intent is
	// committed the operation always completes (or is finished by
	// recovery), preserving atomicity.
	if err := fm.ctxErr(); err != nil {
		return err
	}
	// Degraded read-only mode: while a store breaker is open, reject the
	// mutation before any trusted state changes. The gate admits breaker
	// probes itself (MutationsAllowed), so the mutations that do pass are
	// exactly the ones that can close the breaker again.
	if fm.shared.degraded != nil {
		if err := fm.shared.degraded(); err != nil {
			fm.rs.MarkDegraded()
			return err
		}
	}
	// A failure after an intent committed leaves the operation half
	// applied; finish it before accepting new work.
	if fm.shared.journalDirty.Load() {
		if err := fm.recoverJournal(recoverOpts{strict: true, validate: fm.rollbackOn}); err != nil {
			return err
		}
	}
	tx := &opCtx{
		op:   op,
		puts: make(map[string]*stagedPut),
		dels: make(map[string]*stagedDel),
	}
	fm.tx = tx
	defer func() { fm.tx = nil }()

	if err := fn(); err != nil {
		tx.runAbortHooks()
		return err
	}
	if tx.empty() {
		tx.runCommitHooks()
		return nil
	}

	// Last cancellation point: nothing durable exists yet, so aborting
	// here rolls back cleanly. After Commit returns, the op is applied
	// unconditionally — fm.ctx is never consulted again.
	if err := fm.ctxErr(); err != nil {
		tx.runAbortHooks()
		return err
	}
	writes, deletes, err := fm.records(tx)
	if err != nil {
		tx.runAbortHooks()
		return err
	}
	// The commit seals every blob into the record, so its time includes
	// the content encryption.
	commitStart := time.Now()
	seq, err := fm.journal.Commit(op, writes, deletes)
	fm.rs.AddJournalCommit(time.Since(commitStart))
	if err != nil {
		// The intent never became durable: the operation rolls back (no
		// backend object was touched yet).
		tx.runAbortHooks()
		return err
	}
	if err := fm.applyIntent(writes, deletes); err != nil {
		// The intent IS durable: recovery will finish the operation, so
		// commit hooks must not run yet and abort hooks must not run at
		// all. Refuse further mutations until the replay succeeds.
		fm.shared.journalDirty.Store(true)
		return err
	}
	fm.publishVerified(tx)
	if err := fm.journal.MarkApplied(seq); err != nil {
		// The operation applied fully; only the journal cleanup failed.
		// Report success, but force a (harmless, idempotent) replay before
		// the next mutation.
		fm.shared.journalDirty.Store(true)
	}
	tx.runCommitHooks()
	return nil
}

// nsByKind resolves a journal record's store kind.
func (fm *fileManager) nsByKind(kind string) (*namespace, error) {
	switch kind {
	case contentRootKey:
		return fm.content, nil
	case groupRootKey:
		return fm.group, nil
	}
	return nil, fmt.Errorf("%w: unknown store kind in journal record", ErrIntegrity)
}

// applyIntent installs an intent on the backends: all writes in order,
// then all deletes. Bodies are the final sealed bytes and are stored as
// they are, so a recovery replay is byte-identical. Only a root write
// flagged NeedsToken is sealed here: it commits the namespace guard and
// takes its fresh token, which keeps a replay consistent with the guard
// state. Deletes tolerate already-absent objects so replays are
// idempotent.
func (fm *fileManager) applyIntent(writes []journal.Write, deletes []journal.Delete) error {
	for _, w := range writes {
		ns, err := fm.nsByKind(w.Store)
		if err != nil {
			return err
		}
		if !w.NeedsToken {
			if err := fm.installBlob(ns, w.Name, w.Body); err != nil {
				return err
			}
			continue
		}
		hdr, body, err := rollback.DecodeHeader(w.Body)
		if err != nil {
			return fmt.Errorf("%w: %s: bad header in journal record", ErrIntegrity, w.Name)
		}
		if hdr.Token, err = ns.guard.Commit(hdr.Main); err != nil {
			return err
		}
		if err := fm.putBlobRaw(ns, w.Name, hdr, body); err != nil {
			return err
		}
	}
	for _, d := range deletes {
		ns, err := fm.nsByKind(d.Store)
		if err != nil {
			return err
		}
		if err := fm.deleteBlobRaw(ns, d.Name); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	return nil
}

type recoverOpts struct {
	// strict enforces the journal's truncation bound against the enclave
	// counter; relaxed only after a CA-authorized backup restoration.
	strict bool
	// validate re-checks the rollback-tree path of every replayed object.
	validate bool
}

// recoverJournal scans the journal and re-applies every committed intent
// in order (crashes between an intent's commit and its application roll
// forward; a commit torn by the crash was never applied and its record
// is discarded — the rollback case). Replays are recorded in the audit
// trail, and with validate set, every object a replay touched is
// re-validated against the rollback tree afterwards.
func (fm *fileManager) recoverJournal(opts recoverOpts) error {
	fm.shared.recovery.begin()
	defer fm.shared.recovery.finish()
	set, err := fm.journal.Recover(opts.strict)
	if err != nil {
		return err
	}
	for i, rec := range set.Pending {
		if err := fm.applyIntent(rec.Writes, rec.Deletes); err != nil {
			return fmt.Errorf("segshare: replay journal intent %d: %w", rec.Seq, err)
		}
		if err := fm.journal.MarkApplied(rec.Seq); err != nil {
			return err
		}
		fm.shared.recovery.progress(i + 1)
	}
	fm.shared.journalDirty.Store(false)
	if len(set.Pending) > 0 || set.Discarded > 0 {
		fm.obs.auditEmitStats(fm.rs, audit.Event{
			Event:  audit.EventRecovery,
			Detail: fmt.Sprintf("replayed=%d discarded=%d", len(set.Pending), set.Discarded),
		})
	}
	if !opts.validate {
		return nil
	}
	seen := make(map[string]bool)
	for _, rec := range set.Pending {
		for _, w := range rec.Writes {
			key := w.Store + ":" + w.Name
			if seen[key] {
				continue
			}
			seen[key] = true
			ns, err := fm.nsByKind(w.Store)
			if err != nil {
				return err
			}
			hdr, body, err := fm.getBlob(ns, w.Name)
			if errors.Is(err, ErrNotFound) {
				continue // written then deleted within the same intent
			}
			if err != nil {
				return err
			}
			if err := fm.validateNode(ns, w.Name, hdr, body); err != nil {
				return err
			}
		}
	}
	return nil
}
