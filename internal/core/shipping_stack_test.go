package core

import (
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// TestZeroConfigRunsShippingStack: a Config with nothing but the CA and
// the stores runs the serving stack the binary ships — admission, the SLO
// engine, the heavy-hitter sketch and the stall watchdog — on HTTP and
// direct requests alike.
func TestZeroConfigRunsShippingStack(t *testing.T) {
	authority, err := ca.New("zero config CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	f := &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}

	if err := server.Direct("alice").Upload("/f.txt", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if rec := f.do(t, "alice", http.MethodGet, "/fs/f.txt", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
	}

	limits := map[string]bool{}
	var sloTotal int64 = -1
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "segshare_admission_limit":
			for _, l := range m.Labels {
				if l.Key == "class" {
					limits[l.Value] = true
				}
			}
		case "segshare_slo_requests_total":
			sloTotal = m.Value
		}
	}
	if !limits["read"] || !limits["mutation"] {
		t.Errorf("segshare_admission_limit classes = %v, want read and mutation", limits)
	}
	if sloTotal < 2 {
		t.Errorf("segshare_slo_requests_total = %d, want >= 2 (one HTTP GET, one direct upload)", sloTotal)
	}

	rec := httptest.NewRecorder()
	server.HotHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/hot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/hot = %d: %s", rec.Code, rec.Body)
	}
	var hot obs.HotStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &hot); err != nil {
		t.Fatal(err)
	}
	if len(hot.Entries) != 1 {
		t.Errorf("/debug/hot entries = %+v, want alice's one group", hot.Entries)
	}

	wd := server.Watchdog()
	if wd == nil {
		t.Fatal("Server.Watchdog() is nil")
	}
	// obs.Watchdog exports no listing of its checks, so read the names it
	// sweeps.
	var names []string
	checks := reflect.ValueOf(wd).Elem().FieldByName("checks")
	for i := 0; i < checks.Len(); i++ {
		names = append(names, checks.Index(i).FieldByName("name").String())
	}
	if !strings.Contains(strings.Join(names, ","), "request_deadline") {
		t.Errorf("watchdog checks = %v, want request_deadline among them", names)
	}
}

// certFailStore fails every read of the persisted server certificate,
// the last fallible step of NewServer.
type certFailStore struct{ *store.Memory }

func (s certFailStore) Get(name string) ([]byte, error) {
	if name == metaServerCert {
		return nil, errors.New("injected certificate read failure")
	}
	return s.Memory.Get(name)
}

// TestNewServerErrorReleasesGoroutines: a NewServer that fails after the
// audit writer, the SLO evaluator, the watchdog and the bridge started
// leaves none of their goroutines behind.
func TestNewServerErrorReleasesGoroutines(t *testing.T) {
	authority, err := ca.New("leak test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err = NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   certFailStore{store.NewMemory()},
		AuditStore:   store.NewMemory(),
		Obs:          obs.NewRegistry(),
	})
	if err == nil {
		t.Fatal("NewServer succeeded with a failing certificate read")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d -> %d after a failed NewServer:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNewServerRejectsBadSLOConfig: an SLO setting the engine would
// silently replace with its default or ignore is a configuration error
// naming the field or key. Zero objective and threshold still mean
// "default".
func TestNewServerRejectsBadSLOConfig(t *testing.T) {
	authority, err := ca.New("slo override CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(op string, d time.Duration) obs.SLOConfig {
		return obs.SLOConfig{PerOpLatency: map[string]time.Duration{op: d}}
	}
	for _, tc := range []struct {
		slo  obs.SLOConfig
		want string // substring of the error; "" = accepted
	}{
		{perOp("fs_copy", 2*time.Second), "fs_copy"},
		{perOp("fs_put", 0), "fs_put"},
		{perOp("fs_put", -time.Second), "fs_put"},
		{perOp("fs_put", time.Second), ""},
		{obs.SLOConfig{Objective: 99.9}, "Objective"},
		{obs.SLOConfig{Objective: 1}, "Objective"},
		{obs.SLOConfig{Objective: -0.5}, "Objective"},
		{obs.SLOConfig{Objective: 0.99}, ""},
		{obs.SLOConfig{LatencyThreshold: -time.Second}, "LatencyThreshold"},
		{obs.SLOConfig{}, ""},
	} {
		slo := tc.slo
		desc := fmt.Sprintf("Objective=%v LatencyThreshold=%v PerOpLatency=%v",
			slo.Objective, slo.LatencyThreshold, slo.PerOpLatency)
		server, err := NewServer(platform, Config{
			CACertPEM:    authority.CertificatePEM(),
			ContentStore: store.NewMemory(),
			GroupStore:   store.NewMemory(),
			Obs:          obs.NewRegistry(),
			SLO:          &slo,
		})
		if err == nil {
			server.Close()
		}
		switch {
		case tc.want != "" && err == nil:
			t.Errorf("%s accepted, want an error naming %s", desc, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %s", desc, err, tc.want)
		case tc.want == "" && err != nil:
			t.Errorf("%s rejected: %v", desc, err)
		}
	}
}
