package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesWithMode(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		data string
		perm os.FileMode
	}{{"first", 0o600}, {"second", 0o644}} {
		if err := Write(dir, "rec.json", []byte(c.data), c.perm); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "rec.json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.data {
			t.Fatalf("contents %q, want %q", got, c.data)
		}
		fi, err := os.Stat(filepath.Join(dir, "rec.json"))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != c.perm {
			t.Fatalf("mode %v, want %v", fi.Mode().Perm(), c.perm)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the record (no temporary files left)", len(entries))
	}
}

func TestWriteFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	// Renaming a file over a non-empty directory fails after the temporary
	// file was written, which exercises the cleanup path.
	if err := os.MkdirAll(filepath.Join(dir, "rec.json", "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, "rec.json", []byte("data"), 0o600); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("temporary file left behind: %v", entries)
	}
}
