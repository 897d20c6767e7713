package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoSnapshot is returned by Recover when no verifiable snapshot
// exists: either the directory holds no generations at all (a clean cold
// start) or every generation failed verification (a degraded cold start —
// inspect RecoveryInfo.Skipped to tell the two apart).
var ErrNoSnapshot = errors.New("store: no verifiable snapshot")

// DefaultRetain is the number of snapshot generations kept on disk.
// Older generations are pruned after each successful write; more than
// one is kept so recovery can fall back past a generation corrupted at
// rest.
const DefaultRetain = 3

const (
	snapPrefix = "csnap-"
	snapSuffix = ".snap"
)

// Store manages generation-numbered CSNAP1 snapshots in one directory:
// csnap-000001.snap, csnap-000002.snap, ... Writes go through the atomic
// temp+fsync+rename path into the next generation slot; recovery scans
// newest-first and loads the most recent generation that verifies.
//
// A Store serializes nothing itself — callers (the Maintainer) already
// serialize state transitions. Concurrent WriteCtx calls on one Store
// require external synchronization; Recover is read-only and safe
// alongside anything.
type Store struct {
	dir string
}

// Open prepares dir (creating it if needed) and returns a store over it
// with DefaultRetain retention.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the snapshot directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path of generation gen.
func (s *Store) Path(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", snapPrefix, gen, snapSuffix))
}

// parseGen extracts the generation number from a snapshot file name.
// Anything else — temp files from interrupted writes included — is not a
// generation.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	mid := name[len(snapPrefix) : len(name)-len(snapSuffix)]
	if mid == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Generations lists the snapshot generations present on disk, ascending.
func (s *Store) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := parseGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// WriteCtx encodes st and commits it as the next generation, then prunes
// generations beyond the retention bound (best-effort) and stale temp
// files from interrupted writes. It returns the committed generation
// number. On any error — cancellation, encode failure, write failure —
// no new generation becomes visible.
func (s *Store) WriteCtx(ctx context.Context, st *State) (uint64, error) {
	data, err := Encode(st)
	if err != nil {
		return 0, err
	}
	gens, err := s.Generations()
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	if err := AtomicWriteFileCtx(ctx, s.Path(next), data, 0o644); err != nil {
		return 0, err
	}
	s.prune(gens)
	return next, nil
}

// prune removes the oldest generations beyond the retention bound and
// any stale temp files, best-effort: the just-committed write counts as
// one retained generation, and a failed unlink never fails the write
// that triggered it.
func (s *Store) prune(old []uint64) {
	excess := len(old) + 1 - DefaultRetain
	for i := 0; i < excess && i < len(old); i++ {
		os.Remove(s.Path(old[i]))
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
}

// SkippedGeneration records one generation recovery could not use and
// why (a read error or a *CorruptError from verification).
type SkippedGeneration struct {
	Generation uint64
	Path       string
	Err        error
}

// MarshalJSON renders the fault as its message, so the report stays
// meaningful on JSON surfaces like /healthz (an error interface would
// marshal as an empty object).
func (sk SkippedGeneration) MarshalJSON() ([]byte, error) {
	msg := ""
	if sk.Err != nil {
		msg = sk.Err.Error()
	}
	return json.Marshal(struct {
		Generation uint64 `json:"generation"`
		Path       string `json:"path"`
		Error      string `json:"error,omitempty"`
	}{sk.Generation, sk.Path, msg})
}

// RecoveryInfo reports what a Recover scan did, for readiness gating and
// the catapult_store_* metrics.
type RecoveryInfo struct {
	// Generation is the generation that loaded (0 when none did).
	Generation uint64
	// Scanned counts generations examined, newest first.
	Scanned int
	// Skipped lists the generations that failed verification, newest
	// first, each with its typed fault.
	Skipped []SkippedGeneration
	// Degraded is true when recovery had to skip at least one
	// generation — the state served is older than the newest write.
	Degraded bool
}

// Outcome classifies the scan for metrics labels: "clean" (newest
// generation loaded), "degraded" (an older generation loaded), "cold"
// (nothing on disk), "failed" (generations present, none verifiable).
func (ri *RecoveryInfo) Outcome() string {
	switch {
	case ri.Generation != 0 && !ri.Degraded:
		return "clean"
	case ri.Generation != 0:
		return "degraded"
	case ri.Scanned == 0:
		return "cold"
	default:
		return "failed"
	}
}

// MarshalJSON includes the derived outcome label alongside the raw scan
// fields.
func (ri *RecoveryInfo) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Outcome    string              `json:"outcome"`
		Generation uint64              `json:"generation"`
		Scanned    int                 `json:"scanned"`
		Skipped    []SkippedGeneration `json:"skipped,omitempty"`
		Degraded   bool                `json:"degraded"`
	}{ri.Outcome(), ri.Generation, ri.Scanned, ri.Skipped, ri.Degraded})
}

func (ri *RecoveryInfo) String() string {
	return fmt.Sprintf("store recovery: %s (generation %d, scanned %d, skipped %d)",
		ri.Outcome(), ri.Generation, ri.Scanned, len(ri.Skipped))
}

// Recover scans generations newest-first and returns the first state
// that fully verifies, together with the scan report. When nothing
// verifies it returns (nil, info, ErrNoSnapshot); corruption is always a
// typed skip in the report, never a panic and never partial state.
func (s *Store) Recover() (*State, *RecoveryInfo, error) {
	gens, err := s.Generations()
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{}
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		path := s.Path(gen)
		info.Scanned++
		data, err := os.ReadFile(path)
		if err == nil {
			var st *State
			if st, err = Decode(data); err == nil {
				info.Generation = gen
				info.Degraded = len(info.Skipped) > 0
				return st, info, nil
			}
		}
		info.Skipped = append(info.Skipped, SkippedGeneration{Generation: gen, Path: path, Err: err})
	}
	return nil, info, ErrNoSnapshot
}
