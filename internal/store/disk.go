package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The disk layout under a store directory: objects/<id[:2]>/<id> holds
// one framed entry (see encodeEntry), and tmp/ holds writes that have
// not yet been renamed into place.

func objectsDir(dir string) string { return filepath.Join(dir, "objects") }
func tmpDir(dir string) string     { return filepath.Join(dir, "tmp") }

func entryPath(dir, id string) string {
	return filepath.Join(objectsDir(dir), id[:2], id)
}

// prepareDir creates the layout under dir and sweeps the temp files a
// crash left behind: a temp file is an interrupted write whose rename
// never happened, so its entry was never visible.
func prepareDir(dir string) error {
	for _, sub := range []string{objectsDir(dir), tmpDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	tmps, err := os.ReadDir(tmpDir(dir))
	if err != nil {
		return fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, t := range tmps {
		os.Remove(filepath.Join(tmpDir(dir), t.Name()))
	}
	return nil
}

// diskFile is one entry file found by scanEntries.
type diskFile struct {
	id    string
	size  int64
	mtime int64
	stage string
}

// scanEntries lists the entry files under dir, least recently modified
// first: the order in which Open indexes them, so the oldest file is
// the first evicted. Only well-formed names (the hex id, fanned under
// its own first two characters) are listed; stray files are ignored
// rather than risking eviction removing the wrong path.
func scanEntries(dir string) ([]diskFile, error) {
	fans, err := os.ReadDir(objectsDir(dir))
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", objectsDir(dir), err)
	}
	var out []diskFile
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(objectsDir(dir), fan.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			id := f.Name()
			if err != nil || !info.Mode().IsRegular() || !validEntryID(id) || id[:2] != fan.Name() {
				continue
			}
			out = append(out, diskFile{
				id:    id,
				size:  info.Size(),
				mtime: info.ModTime().UnixNano(),
				stage: readEntryStage(entryPath(dir, id)),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mtime < out[j].mtime })
	return out, nil
}

// readEntryStage recovers the stage of an on-disk entry from its
// header prefix (the index rebuild path — installs parse the framed
// bytes they already hold). Unreadable or malformed files report
// "unknown"; they will be evicted on first access like any other
// corrupt entry.
func readEntryStage(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	buf := make([]byte, 1024)
	n, _ := io.ReadFull(f, buf)
	return stageOfEntryHeader(buf[:n])
}

// writeTemp writes raw to a new temp file in dir's tmp directory (the
// same filesystem as objects/, so the install's rename is atomic),
// fully written, fsynced and closed, and makes sure id's fan-out
// directory exists. It returns the temp file's path.
func writeTemp(dir, id string, raw []byte) (string, error) {
	tmp, err := os.CreateTemp(tmpDir(dir), "put-*")
	if err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	_, err = tmp.Write(raw)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.MkdirAll(filepath.Dir(entryPath(dir, id)), 0o755)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: put: %w", err)
	}
	return tmp.Name(), nil
}
