package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"blob/internal/meta"
)

// The paper's access unit is the segment — page-aligned offset and size.
// This file layers byte-granular access on top: unaligned reads trim a
// page-aligned read, and unaligned writes do a read-modify-write of the
// boundary pages against a base snapshot. RMW writes are NOT atomic with
// respect to concurrent writers touching the same boundary pages (a
// fundamental property of read-modify-write; the version manager still
// totally orders the resulting patches), so concurrent unaligned writers
// should partition the byte range like aligned ones do.

// ReadAt fills p with bytes at off of version v, with no alignment
// requirements. It implements the io.ReaderAt contract except that the
// version must be supplied via ReaderAt/ReadSeeker adapters below.
func (b *Blob) ReadAt(ctx context.Context, p []byte, off uint64, v meta.Version) error {
	if len(p) == 0 {
		return nil
	}
	if off+uint64(len(p)) > b.CapacityBytes() {
		return fmt.Errorf("core: read [%d,%d) beyond capacity %d", off, off+uint64(len(p)), b.CapacityBytes())
	}
	first := off / b.pageSize * b.pageSize
	last := (off + uint64(len(p)) + b.pageSize - 1) / b.pageSize * b.pageSize
	buf := make([]byte, last-first)
	if _, err := b.Read(ctx, buf, first, v); err != nil {
		return err
	}
	copy(p, buf[off-first:])
	return nil
}

// WriteAt patches the blob with p at byte offset off, producing a new
// version. Boundary pages are completed by reading version base (use the
// latest published version for ordinary use). The entire covering
// page-aligned extent becomes part of the new version's patch.
func (b *Blob) WriteAt(ctx context.Context, p []byte, off uint64, base meta.Version) (meta.Version, error) {
	if len(p) == 0 {
		return 0, errors.New("core: empty unaligned write")
	}
	if off+uint64(len(p)) > b.CapacityBytes() {
		return 0, fmt.Errorf("core: write [%d,%d) beyond capacity %d", off, off+uint64(len(p)), b.CapacityBytes())
	}
	first := off / b.pageSize * b.pageSize
	last := (off + uint64(len(p)) + b.pageSize - 1) / b.pageSize * b.pageSize
	buf := make([]byte, last-first)
	// Read-modify-write: fetch the boundary content from the base
	// snapshot. A fully-aligned request skips the read entirely.
	if off != first || off+uint64(len(p)) != last {
		if _, err := b.Read(ctx, buf, first, base); err != nil {
			return 0, err
		}
	}
	copy(buf[off-first:], p)
	return b.Write(ctx, buf, first)
}

// Reader is a sequential io.Reader / io.Seeker / io.ReaderAt over one
// published version of a blob. It reads through the client's metadata
// cache and never observes later writes — a consistent snapshot cursor,
// which after NewReader never contacts the version manager.
type Reader struct {
	ctx  context.Context
	b    *Blob
	v    meta.Version
	size uint64
	pos  uint64
}

// NewReader returns a reader over version v. The size is the version's
// logical size, so io.EOF behaves like a file of that length.
func (b *Blob) NewReader(ctx context.Context, v meta.Version) (*Reader, error) {
	published, size, err := b.c.vm.VersionInfo(ctx, b.id, v)
	if err != nil {
		return nil, err
	}
	if !published && v != meta.ZeroVersion {
		return nil, fmt.Errorf("%w: version %d", ErrNotPublished, v)
	}
	b.notePublished(v) // so the cursor's reads never ask again
	return &Reader{ctx: ctx, b: b, v: v, size: size}, nil
}

// Version returns the snapshot the reader is bound to.
func (r *Reader) Version() meta.Version { return r.v }

// Size returns the logical size of the snapshot in bytes.
func (r *Reader) Size() uint64 { return r.size }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.pos >= r.size {
		return 0, io.EOF
	}
	n := uint64(len(p))
	if r.pos+n > r.size {
		n = r.size - r.pos
	}
	if err := r.b.ReadAt(r.ctx, p[:n], r.pos, r.v); err != nil {
		return 0, err
	}
	r.pos += n
	return int(n), nil
}

// ReadAt implements io.ReaderAt against the snapshot.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	if uint64(off) >= r.size {
		return 0, io.EOF
	}
	n := uint64(len(p))
	short := false
	if uint64(off)+n > r.size {
		n = r.size - uint64(off)
		short = true
	}
	if err := r.b.ReadAt(r.ctx, p[:n], uint64(off), r.v); err != nil {
		return 0, err
	}
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// Seek implements io.Seeker.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = int64(r.pos) + offset
	case io.SeekEnd:
		abs = int64(r.size) + offset
	default:
		return 0, fmt.Errorf("core: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, errors.New("core: negative seek position")
	}
	r.pos = uint64(abs)
	return abs, nil
}

// WriteTo implements io.WriterTo, streaming the snapshot in page-aligned
// chunks sized to amortize metadata round trips.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	const chunkPages = 64
	chunk := chunkPages * r.b.pageSize
	var written int64
	buf := make([]byte, chunk)
	for r.pos < r.size {
		n := uint64(len(buf))
		if r.pos+n > r.size {
			n = r.size - r.pos
		}
		if err := r.b.ReadAt(r.ctx, buf[:n], r.pos, r.v); err != nil {
			return written, err
		}
		m, err := w.Write(buf[:n])
		written += int64(m)
		r.pos += uint64(m)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
