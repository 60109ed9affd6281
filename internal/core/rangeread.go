package core

import (
	"fmt"

	"segshare/internal/fspath"
)

// ByteRange is a single parsed HTTP byte range, not yet resolved against
// the file size. Start == -1 requests the last SuffixLen bytes; End == -1
// means "through end of file".
type ByteRange struct {
	Start     int64
	End       int64
	SuffixLen int64
}

// RangeResult is a resolved range read: the requested bytes plus the
// offset and total size needed for a Content-Range response header. Data
// may alias a buffer shared with coalesced readers and must be treated as
// read-only.
type RangeResult struct {
	Data  []byte
	Off   int64
	Total int64
}

// resolve maps the parsed range onto a file of the given size, following
// RFC 9110 §14.1.2 semantics. A range starting past EOF is unsatisfiable;
// an end past EOF is clamped.
func (br ByteRange) resolve(total int64) (off, length int64, err error) {
	if br.Start < 0 {
		// Suffix range: last SuffixLen bytes.
		n := br.SuffixLen
		if n > total {
			n = total
		}
		if n <= 0 {
			return 0, 0, fmt.Errorf("%w: of %d bytes", ErrRangeNotSatisfiable, total)
		}
		return total - n, n, nil
	}
	if br.Start >= total {
		return 0, 0, fmt.Errorf("%w: start %d of %d bytes", ErrRangeNotSatisfiable, br.Start, total)
	}
	end := br.End
	if end < 0 || end >= total {
		end = total - 1
	}
	return br.Start, end - br.Start + 1, nil
}

// readContentRange serves a byte range of a content file. When the
// stored body is raw (no dedup indirection) and no rollback header
// precedes it, the pfs reader's random access decrypts only the chunks
// the range touches, verifying each chunk's Merkle path — the sibling
// validation the format was designed for — instead of opening the whole
// blob. Dedup indirections, rollback mode, and staged views fall back to
// a full (coalesced) read plus slicing, because those paths need the
// complete body to authenticate (full-content HMAC binding, header-over-
// body validation) before any byte may be released.
func (fm *fileManager) readContentRange(path fspath.Path, br ByteRange) (RangeResult, error) {
	if path.IsDir() {
		return RangeResult{}, fmt.Errorf("%w: %q is a directory path", ErrBadRequest, path)
	}
	if !fm.staging() && !fm.rollbackOn {
		res, fast, err := fm.rangeFast(path, br)
		if fast {
			return res, err
		}
	}
	full, err := fm.readContent(path)
	if err != nil {
		return RangeResult{}, err
	}
	total := int64(len(full))
	off, length, err := br.resolve(total)
	if err != nil {
		return RangeResult{Total: total}, err
	}
	return RangeResult{Data: full[off : off+length], Off: off, Total: total}, nil
}

// rangeFast is the random-access path: it opens the stored blob's footer,
// checks the body tag, and decrypts only the covered chunks. fast=false
// means the body is a dedup indirection and the caller must fall back;
// any error with fast=true is final.
func (fm *fileManager) rangeFast(path fspath.Path, br ByteRange) (res RangeResult, fast bool, err error) {
	name := path.String()
	r, err := fm.open(fm.content, name)
	if err != nil {
		return RangeResult{}, true, err
	}
	if r.Size() < 1 {
		return RangeResult{}, true, fmt.Errorf("%w: %s: empty content body", ErrIntegrity, name)
	}
	var tag [1]byte
	if _, err := r.ReadAt(tag[:], 0); err != nil {
		return RangeResult{}, true, fmt.Errorf("%w: %s", ErrIntegrity, name)
	}
	switch tag[0] {
	case bodyRaw:
	case bodyDedup:
		return RangeResult{}, false, nil
	default:
		return RangeResult{}, true, fmt.Errorf("%w: content body tag %#x", ErrIntegrity, tag[0])
	}
	// Content bytes sit at plaintext offset 1, after the body tag.
	total := r.Size() - 1
	off, length, err := br.resolve(total)
	if err != nil {
		return RangeResult{Total: total}, true, err
	}
	buf := make([]byte, length)
	if _, err := r.ReadAt(buf, off+1); err != nil {
		return RangeResult{}, true, fmt.Errorf("%w: %s", ErrIntegrity, name)
	}
	return RangeResult{Data: buf, Off: off, Total: total}, true, nil
}
