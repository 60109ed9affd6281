package core

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"testing"

	"segshare/internal/store"
)

// TestStatusTableCoversEverySentinel walks every sentinel declared in
// errors.go (enumerated from the source, so a new one without a row
// fails here) plus the two store sentinels that surface unwrapped, and
// checks that direct sessions (statusForErr) and the wire
// (writeMappedErr) report the same status, with Retry-After on exactly
// the 503s.
func TestStatusTableCoversEverySentinel(t *testing.T) {
	type row struct {
		err    error
		status int
	}
	want := map[string]row{
		"ErrPermissionDenied":    {ErrPermissionDenied, 403},
		"ErrNotFound":            {ErrNotFound, 404},
		"ErrExists":              {ErrExists, 409},
		"ErrNotEmpty":            {ErrNotEmpty, 409},
		"ErrIntegrity":           {ErrIntegrity, 500},
		"ErrRollback":            {ErrRollback, 500},
		"ErrBadRequest":          {ErrBadRequest, 400},
		"ErrRangeNotSatisfiable": {ErrRangeNotSatisfiable, 416},
		"ErrGroupNotFound":       {ErrGroupNotFound, 404},
		"ErrDegraded":            {ErrDegraded, 503},
		"ErrOverloaded":          {ErrOverloaded, 503},
		"ErrCanceled":            {ErrCanceled, StatusClientClosedRequest},
		"ErrTooLarge":            {ErrTooLarge, 413},
	}
	file, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				declared++
				if _, ok := want[name.Name]; !ok {
					t.Errorf("errors.go declares %s but the status table test has no row for it", name.Name)
				}
			}
		}
		return true
	})
	if declared != len(want) {
		t.Errorf("errors.go declares %d sentinels, the test table has %d rows", declared, len(want))
	}

	want["store.ErrSaturated"] = row{store.ErrSaturated, 503}
	want["store.ErrCircuitOpen"] = row{store.ErrCircuitOpen, 503}
	want["context.Canceled"] = row{context.Canceled, StatusClientClosedRequest}
	want["context.DeadlineExceeded"] = row{context.DeadlineExceeded, StatusClientClosedRequest}
	want["unmapped"] = row{errors.New("disk on fire"), 500}

	for name, r := range want {
		wrapped := fmt.Errorf("segshare: op: %w", r.err)
		if got := statusForErr(wrapped); got != r.status {
			t.Errorf("statusForErr(%s) = %d, want %d", name, got, r.status)
		}
		rec := httptest.NewRecorder()
		writeMappedErr(rec, wrapped)
		if rec.Code != r.status {
			t.Errorf("writeMappedErr(%s) = %d, want %d", name, rec.Code, r.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != (r.status == 503) {
			t.Errorf("writeMappedErr(%s): Retry-After present = %v on a %d", name, got, r.status)
		}
	}
	if got := statusForErr(nil); got != 200 {
		t.Errorf("statusForErr(nil) = %d, want 200", got)
	}
}
