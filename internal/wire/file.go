package wire

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile publishes data at path: write to a same-directory temp
// file, fsync it, then rename over the destination. A reader never
// observes a torn file — it sees either the previous content or the
// complete new one — and a full disk cannot masquerade as a successful
// write. Shards, manifests, .sack checkpoints and .sacm models are all
// published through it, so a process killed mid-save leaves its last
// good file intact.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()      //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating
		os.Remove(tmp) //nolint:errcheck // best-effort removal of the temp file
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort removal of the temp file
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort removal of the temp file
		return fmt.Errorf("wire: publish %s: %w", path, err)
	}
	return nil
}
