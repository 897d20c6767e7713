package store

import (
	"context"
	"os"
	"path/filepath"

	"repro/internal/pipeline"
)

// writeChunk is the durable write path's chunk size. Each written chunk
// reports CounterStoreBytes on the context's pipeline trace, which is the
// hook the chaos suite uses to kill the writer at byte N; the suite also
// shrinks this to get per-byte kill granularity.
var writeChunk = 64 * 1024

// AtomicWriteFileCtx writes data to path atomically and durably: the
// bytes go to path+".tmp" first, the file is fsynced and closed, the temp
// file is renamed over path, and the containing directory is fsynced so
// the rename itself survives a crash. A reader therefore only ever
// observes either the previous complete file or the new complete file —
// never a torn mixture — and after a clean return the data is on stable
// storage. ctx is checked between chunks, each chunk reports
// CounterStoreBytes on ctx's pipeline trace, and CounterStorePersists
// fires once after the rename and directory sync commit the write.
func AtomicWriteFileCtx(ctx context.Context, path string, data []byte, perm os.FileMode) error {
	tr := pipeline.From(ctx)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	for off := 0; off < len(data); {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		end := off + writeChunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := f.Write(data[off:end]); err != nil {
			return fail(err)
		}
		// Reported after the bytes hit the file, so a fault armed at
		// byte N unwinds with exactly ≥N bytes in the temp file — the
		// torn state a real kill leaves behind.
		tr.Add(pipeline.CounterStoreBytes, int64(end-off))
		off = end
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	tr.Add(pipeline.CounterStorePersists, 1)
	return nil
}

// syncDir fsyncs a directory so a just-committed rename is durable.
// Platforms whose directory handles reject fsync (some network
// filesystems) degrade to best-effort: the rename is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
