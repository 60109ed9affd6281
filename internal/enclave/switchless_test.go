package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBridgeECallOCall(t *testing.T) {
	for _, mode := range []CallMode{ModeSwitchless, ModeBlocking} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			b := NewBridge(BridgeConfig{Mode: mode, SwitchLatency: time.Nanosecond})
			defer b.Close()

			b.RegisterECall("double", func(p []byte) ([]byte, error) {
				return append(p, p...), nil
			})
			b.RegisterOCall("echo", func(p []byte) ([]byte, error) {
				return p, nil
			})

			got, err := b.ECall("double", []byte("ab"))
			if err != nil {
				t.Fatalf("ECall: %v", err)
			}
			if !bytes.Equal(got, []byte("abab")) {
				t.Fatalf("ECall returned %q", got)
			}
			got, err = b.OCall("echo", []byte("xy"))
			if err != nil {
				t.Fatalf("OCall: %v", err)
			}
			if !bytes.Equal(got, []byte("xy")) {
				t.Fatalf("OCall returned %q", got)
			}
		})
	}
}

func TestBridgeUnknownOp(t *testing.T) {
	b := NewBridge(BridgeConfig{})
	defer b.Close()
	if _, err := b.ECall("nope", nil); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("want ErrUnknownOp, got %v", err)
	}
	if _, err := b.OCall("nope", nil); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("want ErrUnknownOp, got %v", err)
	}
}

func TestBridgeHandlerErrorPropagates(t *testing.T) {
	b := NewBridge(BridgeConfig{})
	defer b.Close()
	wantErr := errors.New("boom")
	b.RegisterECall("fail", func(p []byte) ([]byte, error) { return nil, wantErr })
	if _, err := b.ECall("fail", nil); !errors.Is(err, wantErr) {
		t.Fatalf("want handler error, got %v", err)
	}
}

func TestBridgeClose(t *testing.T) {
	b := NewBridge(BridgeConfig{})
	b.RegisterECall("op", func(p []byte) ([]byte, error) { return p, nil })
	b.Close()
	b.Close() // idempotent
	if _, err := b.ECall("op", nil); !errors.Is(err, ErrBridgeClosed) {
		t.Fatalf("want ErrBridgeClosed, got %v", err)
	}
}

func TestBridgeConcurrentCalls(t *testing.T) {
	b := NewBridge(BridgeConfig{})
	defer b.Close()
	b.RegisterECall("id", func(p []byte) ([]byte, error) { return p, nil })

	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			for j := 0; j < 100; j++ {
				got, err := b.ECall("id", payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("caller %d got %v", i, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBridgeMetrics(t *testing.T) {
	b := NewBridge(BridgeConfig{Mode: ModeBlocking, SwitchLatency: time.Nanosecond})
	defer b.Close()
	b.RegisterECall("op", func(p []byte) ([]byte, error) { return nil, nil })
	b.RegisterOCall("op", func(p []byte) ([]byte, error) { return nil, nil })

	for i := 0; i < 3; i++ {
		if _, err := b.ECall("op", nil); err != nil {
			t.Fatalf("ECall: %v", err)
		}
	}
	if _, err := b.OCall("op", nil); err != nil {
		t.Fatalf("OCall: %v", err)
	}
	m := b.Metrics()
	if m.ECalls != 3 || m.OCalls != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Transitions != 8 { // 4 calls × 2 transitions in blocking mode
		t.Fatalf("transitions = %d, want 8", m.Transitions)
	}
}

func TestBridgeSwitchlessHasNoTransitions(t *testing.T) {
	b := NewBridge(BridgeConfig{Mode: ModeSwitchless})
	defer b.Close()
	b.RegisterECall("op", func(p []byte) ([]byte, error) { return nil, nil })
	if _, err := b.ECall("op", nil); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if m := b.Metrics(); m.Transitions != 0 {
		t.Fatalf("switchless mode recorded %d transitions", m.Transitions)
	}
}

// TestBridgeParkedCallDelaysNoOther verifies that switchless calls run
// on their callers' goroutines: with one call parked in its handler,
// further calls in both directions complete without an enclave
// transition. Close then fails new calls while the parked one still
// returns its own result.
func TestBridgeParkedCallDelaysNoOther(t *testing.T) {
	b := NewBridge(BridgeConfig{})
	entered, release := make(chan struct{}), make(chan struct{})
	b.RegisterECall("park", func(p []byte) ([]byte, error) { close(entered); <-release; return []byte("parked"), nil })
	b.RegisterECall("op", func(p []byte) ([]byte, error) { return p, nil })
	b.RegisterOCall("op", func(p []byte) ([]byte, error) { return p, nil })

	type result struct {
		data []byte
		err  error
	}
	parked := make(chan result, 1)
	go func() { data, err := b.ECall("park", nil); parked <- result{data, err} }()
	<-entered
	for i := 0; i < 8; i++ {
		if got, err := b.ECall("op", []byte("x")); err != nil || string(got) != "x" {
			t.Fatalf("ECall beside a parked call = %q, %v", got, err)
		}
		if got, err := b.OCall("op", []byte("y")); err != nil || string(got) != "y" {
			t.Fatalf("OCall beside a parked call = %q, %v", got, err)
		}
	}
	if m := b.Metrics(); m.Transitions != 0 {
		t.Fatalf("switchless calls recorded %d transitions, want 0", m.Transitions)
	}
	if n := b.Pending(); n != 1 {
		t.Fatalf("Pending = %d with one call parked, want 1", n)
	}

	b.Close()
	if _, err := b.ECall("op", nil); !errors.Is(err, ErrBridgeClosed) {
		t.Fatalf("ECall after Close: want ErrBridgeClosed, got %v", err)
	}
	close(release)
	if r := <-parked; r.err != nil || string(r.data) != "parked" {
		t.Fatalf("parked ECall across Close = %q, %v", r.data, r.err)
	}
}
