package pfs

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestDecryptCtxCancelled verifies chunk-level cancellation of the open
// kernel: an already-canceled context stops it with a context error
// instead of opening the file.
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

	if _, err := keys.DecryptCtx(ctx, fileID, bytes.Clone(blob)); err == nil {
		t.Error("opened a full file under a canceled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
}

// TestCtxPathsMatchSerialOutput proves a live context changes nothing:
// at every size the ctx open returns the bytes the nil-ctx open and the
// whole-range ReadAt return.
func TestCtxPathsMatchSerialOutput(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, size := range compatSizes {
		plain := compatPlain(size)
		blob, err := EncryptWorkers(key, fileID, plain, 1)
		if err != nil {
			t.Fatalf("size=%d encrypt: %v", size, err)
		}
		got, err := keys.DecryptCtx(ctx, fileID, bytes.Clone(blob))
		if err != nil {
			t.Fatalf("size=%d ctx decrypt: %v", size, err)
		}
		noCtx, err := DecryptWorkers(key, fileID, blob, 1)
		if err != nil {
			t.Fatalf("size=%d nil-ctx decrypt: %v", size, err)
		}
		viaReadAt, err := readAllAt(key, fileID, blob)
		if err != nil {
			t.Fatalf("size=%d ReadAt: %v", size, err)
		}
		if !bytes.Equal(got, plain) || !bytes.Equal(noCtx, plain) || !bytes.Equal(viaReadAt, plain) {
			t.Fatalf("size=%d: ctx / nil-ctx / ReadAt opens disagree with the plaintext", size)
		}
	}
}
