package pfs

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestDecryptCtxCancelled verifies chunk-level cancellation of the open
// kernel: an already-canceled context stops it, inline or fanned out,
// with a context error instead of opening the file.
func TestDecryptCtxCancelled(t *testing.T) {
	key, fileID := compatKeyID(t)
	plain := compatPlain(8 * ChunkSize)
	blob, err := EncryptWorkers(key, fileID, plain, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 4} {
		if _, err := keys.DecryptCtx(ctx, fileID, bytes.Clone(blob), workers); err == nil {
			t.Errorf("workers=%d: opened a full file under a canceled context", workers)
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled in chain", workers, err)
		}
	}
}

// TestCtxPathsMatchSerialOutput proves a live context changes nothing:
// at every size and worker count the ctx open returns the bytes the
// nil-ctx open and the whole-range ReadAt return.
func TestCtxPathsMatchSerialOutput(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, size := range compatSizes {
		plain := compatPlain(size)
		for _, workers := range compatWorkers {
			blob, err := EncryptWorkers(key, fileID, plain, workers)
			if err != nil {
				t.Fatalf("size=%d workers=%d encrypt: %v", size, workers, err)
			}
			got, err := keys.DecryptCtx(ctx, fileID, bytes.Clone(blob), workers)
			if err != nil {
				t.Fatalf("size=%d workers=%d ctx decrypt: %v", size, workers, err)
			}
			noCtx, err := DecryptWorkers(key, fileID, blob, workers)
			if err != nil {
				t.Fatalf("size=%d workers=%d nil-ctx decrypt: %v", size, workers, err)
			}
			viaReadAt, err := readAllAt(key, fileID, blob)
			if err != nil {
				t.Fatalf("size=%d workers=%d ReadAt: %v", size, workers, err)
			}
			if !bytes.Equal(got, plain) || !bytes.Equal(noCtx, plain) || !bytes.Equal(viaReadAt, plain) {
				t.Fatalf("size=%d workers=%d: ctx / nil-ctx / ReadAt opens disagree with the plaintext", size, workers)
			}
		}
	}
}
