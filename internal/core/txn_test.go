package core

import (
	"bytes"
	"testing"

	"segshare/internal/enclave"
	"segshare/internal/journal"
	"segshare/internal/obs"
)

// pendingIntents reads the fixture's journal the way a restart would,
// through a second journal handle, and returns what is committed but not
// yet marked applied.
func (fx *crashFixture) pendingIntents() []*journal.Intent {
	fx.t.Helper()
	encl, err := fx.platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		fx.t.Fatal(err)
	}
	keys, err := journal.DeriveKeys(fx.rootKey)
	if err != nil {
		fx.t.Fatal(err)
	}
	jl, err := journal.Open(fx.group, keys, encl.Counter("journal"), journal.Options{Obs: obs.NewRegistry()})
	if err != nil {
		fx.t.Fatal(err)
	}
	set, err := jl.Recover(true)
	if err != nil {
		fx.t.Fatalf("read journal: %v", err)
	}
	return set.Pending
}

func (fx *crashFixture) stored(ns *namespace, name string) []byte {
	fx.t.Helper()
	raw, err := ns.backend.Get(fx.fm.storageName(ns, name))
	if err != nil {
		fx.t.Fatalf("stored %s: %v", name, err)
	}
	return raw
}

// TestRecoveryInstallsRecordBlobsVerbatim kills an overwrite at every
// backend mutation. Whenever the kill lands between the intent's commit
// and its retirement, the restarted file manager must leave, under each
// written name, exactly the bytes the record carries — recovery installs,
// it does not re-encrypt — and must be able to read them.
func TestRecoveryInstallsRecordBlobsVerbatim(t *testing.T) {
	sc := crashScenarios()[2] // put-update
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			dry := newCrashFixture(t, opts, true)
			seedCorpus(t, dry)
			before := dry.plan.Ops()
			if err := sc.run(dry); err != nil {
				t.Fatalf("dry run: %v", err)
			}
			replays := 0
			for k := 1; k <= dry.plan.Ops()-before; k++ {
				fx := newCrashFixture(t, opts, true)
				seedCorpus(t, fx)
				fx.plan.KillAtOp(k, errInjected)
				_ = sc.run(fx)
				fx.plan.Revive()
				pending := fx.pendingIntents()
				if err := fx.boot(); err != nil {
					t.Fatalf("op%d: restart: %v", k, err)
				}
				if len(pending) == 0 {
					continue
				}
				replays++
				for _, w := range pending[0].Writes {
					ns, err := fx.fm.nsByKind(w.Store)
					if err != nil {
						t.Fatal(err)
					}
					if !w.NeedsToken && !bytes.Equal(fx.stored(ns, w.Name), w.Body) {
						t.Fatalf("op%d: %s: installed object differs from the record's blob", k, w.Name)
					}
					if w.NeedsToken != (fx.fm.rollbackOn && w.Name == ns.rootName) {
						t.Fatalf("op%d: %s: NeedsToken = %v", k, w.Name, w.NeedsToken)
					}
				}
				if n := len(fx.pendingIntents()); n != 0 {
					t.Fatalf("op%d: %d intents left after recovery", k, n)
				}
				if ok, data := fileState(t, fx, "/docs/a.txt"); !ok || string(data) != "updated" {
					t.Fatalf("op%d: replayed overwrite reads %q", k, data)
				}
				if err := fx.fm.validateAll(); err != nil {
					t.Fatalf("op%d: fsck: %v", k, err)
				}
			}
			if replays == 0 {
				t.Fatal("no kill point fell between commit and retirement")
			}
		})
	}
}

// TestOverwriteLeavesUnchangedParentAlone: with rollback protection off
// an overwrite changes nothing in the parent directory, so its intent
// holds the one leaf write and the parent's stored bytes stay as they
// were; with it on, the parent's bucket for the child must still move.
func TestOverwriteLeavesUnchangedParentAlone(t *testing.T) {
	overwrite := func(fx *crashFixture) error {
		_, err := fx.ac.PutFile("alice", fx.path("/docs/a.txt"), []byte("updated"))
		return err
	}
	t.Run("rollback-off", func(t *testing.T) {
		fx := newCrashFixture(t, fmOptions{}, true)
		seedCorpus(t, fx)
		parent := fx.stored(fx.fm.content, "/docs/")
		// Mutation 1 is the intent's commit, 2 the first apply write.
		fx.plan.KillAtOp(2, errInjected)
		if err := overwrite(fx); err == nil {
			t.Fatal("killed overwrite reported success")
		}
		fx.plan.Revive()
		pending := fx.pendingIntents()
		if len(pending) != 1 || len(pending[0].Deletes) != 0 || len(pending[0].Writes) != 1 || pending[0].Writes[0].Name != "/docs/a.txt" {
			t.Fatalf("intent = %+v, want the one leaf write", pending)
		}
		if err := fx.boot(); err != nil {
			t.Fatal(err)
		}
		before := fx.plan.Ops()
		if err := overwrite(fx); err != nil {
			t.Fatal(err)
		}
		if n := fx.plan.Ops() - before; n != 3 {
			t.Fatalf("overwrite made %d backend mutations, want 3 (commit, leaf, retire)", n)
		}
		if !bytes.Equal(fx.stored(fx.fm.content, "/docs/"), parent) {
			t.Fatal("parent directory blob was rewritten")
		}
		// The same early return serves ACL and group-file rewrites.
		for _, step := range []func() error{
			func() error { return fx.ac.SetPermission("alice", fx.path("/docs/a.txt"), "team", 0) },
			func() error { return fx.ac.RemoveUser("alice", "bob", "team") },
		} {
			before := fx.plan.Ops()
			if err := step(); err != nil {
				t.Fatal(err)
			}
			if n := fx.plan.Ops() - before; n != 3 {
				t.Fatalf("rewrite of an existing file made %d backend mutations, want 3", n)
			}
		}
		if err := fx.fm.validateAll(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("rollback-on", func(t *testing.T) {
		fx := newCrashFixture(t, fmOptions{rollback: true, guard: GuardCounter}, true)
		seedCorpus(t, fx)
		parent := fx.stored(fx.fm.content, "/docs/")
		old, err := fx.fm.readHeader(fx.fm.content, "/docs/")
		if err != nil {
			t.Fatal(err)
		}
		if err := overwrite(fx); err != nil {
			t.Fatal(err)
		}
		now, err := fx.fm.readHeader(fx.fm.content, "/docs/")
		if err != nil {
			t.Fatal(err)
		}
		if now.Main == old.Main || bytes.Equal(fx.stored(fx.fm.content, "/docs/"), parent) {
			t.Fatal("parent's bucket chain did not follow the child's new main hash")
		}
		if err := fx.fm.validateAll(); err != nil {
			t.Fatalf("fsck: %v", err)
		}
	})
}
