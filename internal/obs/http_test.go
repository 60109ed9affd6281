package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestTracesQueryClampedToCapacity(t *testing.T) {
	reg := NewRegistry()
	rec := NewTraceRecorder(8)
	for i := 0; i < 20; i++ {
		rec.Start("fs_get", nil).End()
	}
	h := Handler(reg, rec)

	for _, q := range []string{"?n=1000000000", "?n=9", ""} {
		req := httptest.NewRequest(http.MethodGet, "/debug/traces"+q, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /debug/traces%s = %d", q, w.Code)
		}
		var traces []TraceSnapshot
		if err := json.Unmarshal(w.Body.Bytes(), &traces); err != nil {
			t.Fatal(err)
		}
		if len(traces) > rec.Capacity() {
			t.Fatalf("query %q returned %d traces, ring capacity is %d", q, len(traces), rec.Capacity())
		}
	}

	// A small n is still honored.
	req := httptest.NewRequest(http.MethodGet, "/debug/traces?n=2", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var traces []TraceSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(traces))
	}
}

func TestHealthEndpoints(t *testing.T) {
	reg := NewRegistry()
	health := NewHealth()
	storeUp := true
	if err := health.AddCheck("store", func() error {
		if !storeUp {
			return errors.New("dial tcp: secret-host:9999 refused")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := Handler(reg, nil, WithHealth(health))

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}

	// Liveness is unconditional.
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", w.Code)
	}
	// Not ready until the server flips the flag.
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady = %d", w.Code)
	}
	health.SetReady(true)
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz after SetReady = %d: %s", w.Code, w.Body)
	}
	// A failing probe flips readiness and reports the check name only —
	// never the probe's error text (leak budget).
	storeUp = false
	w := get("/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with failing store = %d", w.Code)
	}
	body := w.Body.String()
	if body != "check failed: store\n" {
		t.Fatalf("/readyz body = %q", body)
	}
	// Shutdown drain.
	storeUp = true
	health.SetReady(false)
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d", w.Code)
	}
}

func TestHealthCheckNameLeakBudget(t *testing.T) {
	health := NewHealth()
	if err := health.AddCheck("user_alice_probe", func() error { return nil }); err == nil {
		t.Fatal("identity-bearing check name must be rejected")
	}
	if err := health.AddCheck("store", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestWithEndpoint(t *testing.T) {
	reg := NewRegistry()
	h := Handler(reg, nil, WithEndpoint("/debug/audit/head", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"records":1}`)
		})))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/audit/head", nil))
	if w.Code != http.StatusOK || w.Body.String() != `{"records":1}` {
		t.Fatalf("extra endpoint: %d %q", w.Code, w.Body)
	}
}
