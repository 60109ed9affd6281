package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"segshare/internal/ca"
	"segshare/internal/rollback"
)

// Backup and restoration (paper §V-G). Backing up is the cloud provider's
// job: it copies the encrypted objects on disk (see store.Copy). If the
// enclave that reads a restored backup is the same (same measurement,
// same platform), it possesses the decryption keys; a different enclave
// needs the replication protocol of §V-F.
//
// Restoration interacts with whole-file-system rollback protection: a
// restored (older) state fails the root-guard check by design. The CA can
// authorize the restored state with a signed reset message; the enclave
// verifies the signature with its hard-coded CA key, checks that the
// restored root files are internally consistent, and rebinds the guards
// (overwriting protected memory, or rewriting the root token with the
// counter's current value).

// resetState carries the outstanding reset challenge.
type resetState struct {
	mu    sync.Mutex
	nonce []byte
}

// ResetChallenge returns a fresh nonce the CA must sign to authorize a
// restoration. Each challenge can be consumed at most once.
func (s *Server) ResetChallenge() ([]byte, error) {
	nonce := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("segshare: reset nonce: %w", err)
	}
	s.reset.mu.Lock()
	defer s.reset.mu.Unlock()
	s.reset.nonce = nonce
	out := make([]byte, len(nonce))
	copy(out, nonce)
	return out, nil
}

// AcceptReset verifies a CA signature over the outstanding challenge and,
// on success, re-validates and re-binds the root state of both stores.
func (s *Server) AcceptReset(signature []byte) error {
	s.reset.mu.Lock()
	nonce := s.reset.nonce
	s.reset.nonce = nil
	s.reset.mu.Unlock()
	if nonce == nil {
		return errors.New("segshare: no outstanding reset challenge")
	}
	if !ca.VerifyReset(s.caPub, nonce, signature) {
		return errors.New("segshare: invalid reset signature")
	}
	unlock := s.locks.exclusive(nil, scopeBarrier)
	defer unlock()
	// The operator restored arbitrary store state; everything cached from
	// the previous state is suspect.
	s.fm.cache.Flush()
	if s.fm.dedup != nil {
		if err := s.fm.dedup.Reload(); err != nil {
			return err
		}
	}
	// Finish any operation interrupted by the crash the operator is
	// recovering from. The restored counter state is behind the live one
	// by construction, so the strict tail bound cannot hold here.
	if err := s.fm.recoverJournal(recoverOpts{strict: false, validate: false}); err != nil {
		return err
	}
	if err := s.fm.rebindRoot(s.fm.content); err != nil {
		return err
	}
	return s.fm.rebindRoot(s.fm.group)
}

// rebindRoot checks that a namespace's restored root file is internally
// consistent and rebinds the guard to it.
func (fm *fileManager) rebindRoot(ns *namespace) error {
	if !fm.rollbackOn {
		return nil
	}
	hdr, body, err := fm.getBlob(ns, ns.rootName)
	if err != nil {
		return err
	}
	recomputed := fm.hasher.InnerMain(treeID(ns, ns.rootName), rollback.ContentDigest(body), &hdr.Buckets)
	if recomputed != hdr.Main {
		return fmt.Errorf("%w: restored root of %s is inconsistent", ErrRollback, ns.kind)
	}
	if cg, ok := ns.guard.(*rollback.CounterGuard); ok {
		// Overwrite the stored counter value with the TEE's current one
		// (paper §V-G). This is the one write outside a mutation: it
		// rewrites the token, not the tree, under the whole-tree barrier.
		hdr.Token = cg.CurrentToken()
		if err := fm.putBlobRaw(ns, ns.rootName, hdr, body); err != nil {
			return err
		}
	}
	return ns.guard.Reset(hdr.Main, hdr.Token)
}
