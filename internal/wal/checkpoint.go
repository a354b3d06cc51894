package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint files are ckpt-%016x.ckpt (named by epoch): an 8-byte magic,
// the encodeCheckpoint payload, then a CRC32C of the payload. They are
// written to a temp file, fsynced, renamed into place and the directory
// fsynced — a crash leaves either the old set or the old set plus one new
// valid file, never a half-written checkpoint under a valid name.
const (
	ckptMagic   = "INSQCKP1"
	ckptTmpName = "ckpt.tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checkpointPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", epoch))
}

// writeCheckpoint durably publishes one checkpoint and returns its file
// size.
func writeCheckpoint(dir string, epoch uint64, payload []byte) (int64, error) {
	tmp := filepath.Join(dir, ckptTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err = f.WriteString(ckptMagic)
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		_, err = f.Write(crc[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, checkpointPath(dir, epoch)); err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	return int64(len(ckptMagic) + len(payload) + len(crc)), nil
}

// ckptInfo is one checkpoint file found by a directory scan.
type ckptInfo struct {
	epoch uint64
	path  string
}

// scanCheckpoints lists checkpoint files descending by epoch (newest
// first). Foreign files are ignored.
func scanCheckpoints(dir string) ([]ckptInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan checkpoints: %w", err)
	}
	var cks []ckptInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		hexa := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt")
		epoch, perr := strconv.ParseUint(hexa, 16, 64)
		if perr != nil || len(hexa) != 16 {
			continue
		}
		cks = append(cks, ckptInfo{epoch: epoch, path: filepath.Join(dir, name)})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].epoch > cks[j].epoch })
	return cks, nil
}

// loadNewestCheckpoint returns the newest checkpoint that validates
// (magic + CRC + decode), falling back to older ones past any that do
// not; it returns a nil state when the directory holds no usable
// checkpoint. Invalid files are left in place — recovery must never
// destroy evidence it did not have to.
func loadNewestCheckpoint(dir string) (*ckptState, int64, error) {
	cks, err := scanCheckpoints(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, ck := range cks {
		data, rerr := os.ReadFile(ck.path)
		if rerr != nil {
			continue
		}
		if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
			continue
		}
		payload := data[len(ckptMagic) : len(data)-4]
		crc := binary.LittleEndian.Uint32(data[len(data)-4:])
		if crc32.Checksum(payload, crcTable) != crc {
			continue
		}
		st, derr := decodeCheckpoint(payload)
		if derr != nil {
			continue
		}
		if st.epoch != ck.epoch {
			continue // payload does not match its file name: distrust it
		}
		return &st, int64(len(data)), nil
	}
	return nil, 0, nil
}

// pruneCheckpoints removes all but the keep newest checkpoint files and
// returns the oldest retained epoch. WAL segments are pruned only up to
// that epoch (not the newest checkpoint's): if the newest checkpoint
// turns out unreadable on the next boot, the older one plus the retained
// segments still replays to the exact same state.
func pruneCheckpoints(dir string, keep int) (oldestRetained uint64, err error) {
	cks, err := scanCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	if len(cks) == 0 {
		return 0, nil
	}
	if keep > len(cks) {
		keep = len(cks)
	}
	for i := keep; i < len(cks); i++ {
		if err := os.Remove(cks[i].path); err != nil {
			return 0, fmt.Errorf("wal: prune checkpoint: %w", err)
		}
	}
	return cks[keep-1].epoch, nil
}
