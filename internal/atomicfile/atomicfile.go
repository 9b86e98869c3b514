// Package atomicfile replaces files so that a crash leaves either the old
// contents or the new, never a partial or empty file.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces dir/name with data and gives it mode perm. The data goes to
// a temporary file in dir that is fsynced before it is renamed over name, so
// a crash right after the rename cannot expose a zero-length file; dir is
// fsynced after the rename, so the rename itself survives a crash. On error
// the temporary file is removed and dir/name is left as it was.
func Write(dir, name string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
