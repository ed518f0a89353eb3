package grid

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"snnsec/internal/explore"
	"snnsec/internal/faultinject"
)

// Checkpoint layout (one directory per run):
//
//	manifest.json    — grid axes + spec fingerprint; written once at start
//	point-00042.json — one CRC-wrapped explore.WirePoint per completed point
//	model-00042.snn  — modelio snapshot of the point's trained network
//
// Point files are written atomically (temp file + rename), so a run
// killed at any moment leaves either a complete point or no point —
// never a torn one — on a filesystem that honours fsync+rename. Against
// one that does not (or plain bit rot), every point file additionally
// carries a CRC32 of its payload: a resume verifies each file, renames
// any torn or corrupt one to <name>.corrupt, and re-queues its point
// instead of aborting the session or — worse — merging garbage. The
// files are plain JSON/modelio so external tooling (or a human) can
// inspect partial results without the coordinator.

const manifestName = "manifest.json"

// manifestVersion is bumped whenever the on-disk format changes
// incompatibly; version 2 introduced the CRC point-file envelope, and
// version 3 dropped the job builder's name from the manifest and from
// the fingerprint, which now hashes the spec JSON alone.
const manifestVersion = 3

// FaultCheckpointWrite is the fault point in the point-file write path;
// it supports torn (the file lands truncated, as if the filesystem lied
// about durability — exactly what the CRC exists to catch).
const FaultCheckpointWrite = "grid.checkpoint.write"

// manifest pins a checkpoint directory to one job.
type manifest struct {
	Version     int       `json:"version"`
	Fingerprint string    `json:"fingerprint"`
	Vths        []float64 `json:"vths"`
	Ts          []int     `json:"ts"`
	Epsilons    []float64 `json:"epsilons"`
}

// pointEnvelope is the on-disk frame of one checkpointed point: the raw
// WirePoint JSON plus the IEEE CRC32 of exactly those bytes (lower-case
// hex), so torn and bit-flipped files are detected on resume.
type pointEnvelope struct {
	CRC32 string          `json:"crc32"`
	Point json.RawMessage `json:"point"`
}

func pointCRC(raw []byte) string { return fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw)) }

// checkpoint is the coordinator's handle on the directory.
type checkpoint struct {
	dir string
}

func pointFile(idx int) string { return fmt.Sprintf("point-%05d.json", idx) }
func modelFile(idx int) string { return fmt.Sprintf("model-%05d.snn", idx) }

// initCheckpoint creates dir (if needed) and writes the manifest. It
// refuses a directory already holding a different job's manifest, and —
// unless resume is set — one holding any manifest at all, so a stale
// checkpoint is never silently mixed into a fresh run.
func initCheckpoint(dir string, spec json.RawMessage, cfg *explore.Config, resume bool) (*checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	want := manifest{
		Version:     manifestVersion,
		Fingerprint: fingerprint(spec),
		Vths:        cfg.Vths,
		Ts:          cfg.Ts,
		Epsilons:    cfg.Epsilons,
	}
	path := filepath.Join(dir, manifestName)
	if raw, err := os.ReadFile(path); err == nil {
		var have manifest
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("grid: corrupt checkpoint manifest %s: %w", path, err)
		}
		if have.Version != manifestVersion {
			return nil, fmt.Errorf("grid: checkpoint %s uses format version %d, this build writes %d — finish it with the matching build or start fresh",
				dir, have.Version, manifestVersion)
		}
		if have.Fingerprint != want.Fingerprint {
			short := have.Fingerprint
			if len(short) > 12 {
				short = short[:12]
			}
			return nil, fmt.Errorf("grid: checkpoint %s belongs to a different job (fingerprint %q…)", dir, short)
		}
		if !resume {
			return nil, fmt.Errorf("grid: checkpoint %s already exists; pass resume to continue it", dir)
		}
		return &checkpoint{dir: dir}, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	raw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicWrite(path, raw); err != nil {
		return nil, err
	}
	return &checkpoint{dir: dir}, nil
}

// load returns the completed points recorded in the directory, keyed by
// grid index into res, plus the names of any point files that failed
// verification. A file that is empty, unparsable, whose payload does not
// match its recorded CRC, or that holds the point of another cell than
// the one its name indexes (a renamed file) is quarantined — renamed to
// <name>.corrupt so the evidence survives — and its point simply stays
// pending, to be recomputed like any other. Only I/O errors (unreadable
// directory, failed rename) and an index outside the grid abort the
// load: those are problems a rerun won't fix.
func (c *checkpoint) load(res *explore.Result) (done map[int]explore.Point, corrupt []string, err error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, nil, err
	}
	done = make(map[int]explore.Point)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "point-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, "point-%d.json", &idx); err != nil {
			return nil, nil, fmt.Errorf("grid: unrecognised checkpoint file %s", name)
		}
		raw, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			return nil, nil, err
		}
		wp, verr := verifyPoint(raw)
		if verr == nil {
			if idx < 0 || idx >= len(res.Points) {
				return nil, nil, fmt.Errorf("grid: checkpoint point %d out of a %d-point grid", idx, len(res.Points))
			}
			verr = checkCell(res, idx, wp.Vth, wp.T)
		}
		if verr != nil {
			if err := c.quarantine(name); err != nil {
				return nil, nil, fmt.Errorf("grid: quarantining %s (%v): %w", name, verr, err)
			}
			corrupt = append(corrupt, name)
			continue
		}
		done[idx] = wp.Point()
	}
	return done, corrupt, nil
}

// checkCell returns an error unless (vth, t) is the cell that grid index
// idx, which must lie inside res, names: a point is merged only into the
// cell it was computed for.
func checkCell(res *explore.Result, idx int, vth float64, t int) error {
	nv := len(res.Vths)
	if wv, wt := res.Vths[idx%nv], res.Ts[idx/nv]; vth != wv || t != wt {
		return fmt.Errorf("point %d carries (Vth=%g, T=%d), but its cell is (Vth=%g, T=%d)", idx, vth, t, wv, wt)
	}
	return nil
}

// verifyPoint decodes one point file and checks its payload CRC.
func verifyPoint(raw []byte) (*explore.WirePoint, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty file")
	}
	var env pointEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("unparsable envelope: %w", err)
	}
	if len(env.Point) == 0 || env.CRC32 == "" {
		return nil, fmt.Errorf("envelope missing point or crc32")
	}
	if got := pointCRC(env.Point); got != env.CRC32 {
		return nil, fmt.Errorf("crc mismatch: recorded %s, computed %s", env.CRC32, got)
	}
	var wp explore.WirePoint
	if err := json.Unmarshal(env.Point, &wp); err != nil {
		return nil, fmt.Errorf("unparsable point payload: %w", err)
	}
	return &wp, nil
}

// quarantine moves a failed point file aside as <name>.corrupt, keeping
// the bytes for post-mortem while freeing the point to be recomputed.
func (c *checkpoint) quarantine(name string) error {
	return os.Rename(filepath.Join(c.dir, name), filepath.Join(c.dir, name+".corrupt"))
}

// savePoint durably records one completed point (and its optional model
// snapshot). The model is written first so a point file never exists
// without its snapshot.
func (c *checkpoint) savePoint(idx int, wp *explore.WirePoint, model []byte) error {
	if len(model) > 0 {
		if err := atomicWrite(filepath.Join(c.dir, modelFile(idx)), model); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(wp)
	if err != nil {
		return err
	}
	env, err := json.Marshal(pointEnvelope{CRC32: pointCRC(raw), Point: raw})
	if err != nil {
		return err
	}
	// The torn fault truncates what reaches the disk while the rename
	// still happens — modelling a filesystem that lied about durability.
	env = env[:faultinject.Torn(FaultCheckpointWrite, len(env))]
	return atomicWrite(filepath.Join(c.dir, pointFile(idx)), env)
}

// atomicWrite writes data to path via a temp file and rename, fsyncing
// the file so a completed point survives the process being killed.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
