package bench

import (
	"testing"
	"time"

	"segshare/internal/netsim"
)

// The harness tests run every experiment at a miniature scale: they
// verify the machinery end to end (environments, measurement plumbing,
// all code paths) without asserting absolute numbers.

func TestRunFig3Tiny(t *testing.T) {
	rows, err := RunFig3(Fig3Config{Sizes: []int{4 << 10, 64 << 10}, Runs: 2})
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if len(rows) != 6 { // 3 servers × 2 sizes
		t.Fatalf("rows = %d", len(rows))
	}
	servers := make(map[string]int)
	for _, r := range rows {
		servers[r.Server]++
		if r.Upload.Mean <= 0 || r.Download.Mean <= 0 {
			t.Fatalf("non-positive latency in %+v", r)
		}
	}
	for _, s := range []string{"segshare", "apache", "nginx"} {
		if servers[s] != 2 {
			t.Fatalf("server %s measured %d times", s, servers[s])
		}
	}
}

func TestRunFig4Tiny(t *testing.T) {
	cfg := Fig4Config{Counts: []int{0, 8}, Runs: 3}
	memb, err := RunFig4Membership(cfg)
	if err != nil {
		t.Fatalf("RunFig4Membership: %v", err)
	}
	if len(memb) != 4 {
		t.Fatalf("membership rows = %d", len(memb))
	}
	perm, err := RunFig4Permission(cfg)
	if err != nil {
		t.Fatalf("RunFig4Permission: %v", err)
	}
	if len(perm) != 4 {
		t.Fatalf("permission rows = %d", len(perm))
	}
	for _, r := range append(memb, perm...) {
		if r.Latency.Mean < 0 {
			t.Fatalf("negative latency in %+v", r)
		}
	}
}

func TestRunMembershipFirstGroupTiny(t *testing.T) {
	add, revoke, err := RunMembershipFirstGroup(3, netsim.Profile{})
	if err != nil {
		t.Fatalf("RunMembershipFirstGroup: %v", err)
	}
	if add.Mean <= 0 || revoke.Mean <= 0 {
		t.Fatalf("latencies: add=%v revoke=%v", add, revoke)
	}
}

func TestRunFig5Tiny(t *testing.T) {
	rows, err := RunFig5(Fig5Config{Exponents: []int{0, 3}, Runs: 2, FileSize: 4 << 10})
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	if len(rows) != 8 { // 2 structures × 2 rollback modes × 2 exponents
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Upload.Mean <= 0 || r.Download.Mean <= 0 {
			t.Fatalf("non-positive latency in %+v", r)
		}
	}
}

func TestRunStorageOverheadTiny(t *testing.T) {
	rows, err := RunStorageOverhead(StorageConfig{
		FileSizes:  []int{256 << 10},
		ACLEntries: []int{4, 64},
	})
	if err != nil {
		t.Fatalf("RunStorageOverhead: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.StoredBytes <= r.PlainBytes {
			t.Fatalf("stored %d <= plain %d", r.StoredBytes, r.PlainBytes)
		}
		// Headline claim: small constant-factor overhead. At tiny file
		// sizes the fixed ACL/root costs weigh more than the paper's
		// 1%, but it must stay low single digits.
		if r.OverheadPct > 10 {
			t.Fatalf("overhead %.2f%% too large: %+v", r.OverheadPct, r)
		}
	}
}

func TestRunRevocationAblationTiny(t *testing.T) {
	rows, err := RunRevocationAblation(RevocationConfig{Files: 4, FileSize: 64 << 10, Members: 4, Runs: 2})
	if err != nil {
		t.Fatalf("RunRevocationAblation: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var seg, he RevocationRow
	for _, r := range rows {
		switch r.System {
		case "segshare":
			seg = r
		case "he-baseline":
			he = r
		}
	}
	// The qualitative claim (P3): SeGShare revocation touches no content
	// bytes; the HE baseline re-encrypts everything.
	if seg.ReencryptedBytes != 0 {
		t.Fatalf("segshare re-encrypted %d bytes", seg.ReencryptedBytes)
	}
	if he.ReencryptedBytes != int64(4*64<<10) {
		t.Fatalf("he re-encrypted %d bytes, want %d", he.ReencryptedBytes, 4*64<<10)
	}
	if he.RewrappedKeys != 16 { // 4 files × (owner + 3 remaining members)
		t.Fatalf("he rewrapped %d keys", he.RewrappedKeys)
	}
}

func TestRunSwitchlessAblationTiny(t *testing.T) {
	rows, err := RunSwitchlessAblation(256<<10, 2)
	if err != nil {
		t.Fatalf("RunSwitchlessAblation: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var switchless, blocking SwitchlessRow
	for _, r := range rows {
		switch r.Mode {
		case "switchless":
			switchless = r
		case "blocking":
			blocking = r
		}
	}
	if switchless.Transitions != 0 {
		t.Fatalf("switchless mode recorded %d transitions", switchless.Transitions)
	}
	if blocking.Transitions == 0 {
		t.Fatal("blocking mode recorded no transitions")
	}
}

func TestMeasureStats(t *testing.T) {
	stat, err := measure(5, func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stat.N != 5 {
		t.Fatalf("N = %d", stat.N)
	}
	if stat.Mean < time.Millisecond {
		t.Fatalf("mean %v below sleep time", stat.Mean)
	}
}
