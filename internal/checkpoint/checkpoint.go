// Package checkpoint implements the parameter server's crash-safe on-disk
// snapshot format (DESIGN.md §10). A checkpoint holds what Algorithm 2's
// server state is: the update accumulation M (Eq. 2) with its per-block
// version stamps, the logical clock t, and every worker's sent-accumulation
// v_k with its staleness baseline and incarnation epoch. Restoring it
// (ps.RestoreServer) yields a server whose subsequent exchanges are
// bitwise-identical to the one that crashed, so the Eq. 5 drain invariant
// (v_k == M) survives a full kill/restart cycle. The gather's dirty-tracking
// state (each worker's horizon and residual bitmap) is not stored: restore
// derives a sound version of it from the block stamps.
//
// # File format
//
// Little endian throughout. A file is a header and a body, each followed by
// its CRC-32C:
//
//	u32 magic "DGSK" | u32 format version | u32 header length |
//	header | u32 CRC(header) | body | u32 CRC(body)
//
// The header records the snapshot identity (server incarnation, checkpoint
// sequence number, wall-clock time) and the full model geometry (workers,
// block shift, per-layer sizes and shard placement). The body carries no
// framing of its own: its layout is fixed by that geometry. Per
// shard, in order: T and CapturedT, then M and MVer for each layer the shard
// owns; then, per worker, Prev and Epoch followed by V for each layer.
//
// Decode computes the body length the geometry implies, without overflow,
// and requires it to equal the bytes present before it allocates anything:
// a hostile or torn file fails cleanly instead of provoking huge allocations
// or reads past the buffer (mirroring the sparse.DecodeInto hardening). A
// file of another format version is refused with ErrFormatVersion.
//
// # Atomicity
//
// Write encodes into a temp file in the target directory, syncs it, renames
// it over the final name and syncs the directory. A crash mid-write leaves
// at most a stale temp file; the previous checkpoint is never damaged.
// LoadLatest scans for the highest-sequence file that decodes cleanly, so
// even a corrupted latest file (torn disk write, bit rot caught by CRC)
// falls back to the one before it.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dgs/internal/telemetry"
)

// Magic and version of the on-disk format.
const (
	fileMagic     = 0x4B534744 // "DGSK" little endian
	formatVersion = 3
)

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// decodable checkpoint.
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// ErrFormatVersion is returned, wrapped with the version found, for a file
// written in a format version this build does not read. Unlike corruption it
// is not skipped: LoadLatest returns it at once, so a server never starts
// from θ0 (and later prunes) beside files it merely cannot read.
var ErrFormatVersion = errors.New("checkpoint: unsupported format version")

// crcTable is the Castagnoli polynomial table shared by encode and decode.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WorkerState is one worker's server-side exchange state within a shard.
type WorkerState struct {
	// Prev is the shard timestamp at the worker's last exchange (staleness
	// baseline).
	Prev uint64
	// Epoch is the worker's incarnation counter. Persisting it keeps epoch
	// fencing monotone across server restarts.
	Epoch uint64
	// V is the sent-accumulation v_k, one slice per shard-local layer.
	V [][]float32
}

// ShardState is one shard's complete model state. An unsharded server is a
// single shard owning every layer.
type ShardState struct {
	// T is the shard's logical clock (number of updates applied).
	T uint64
	// CapturedT is the horizon of the capture that produced this state:
	// blocks whose version stamp is ≤ CapturedT are already faithfully in M
	// and V, which is what makes the next capture incremental.
	CapturedT uint64
	// Layers lists the global layer ids this shard owns, in shard-local
	// order; Sizes are their element counts.
	Layers []int
	Sizes  []int
	// M is the shard's update accumulation, MVer its per-block version
	// stamps.
	M    [][]float32
	MVer [][]uint64
	// Workers holds every worker's exchange state against this shard.
	Workers []WorkerState
}

// State is a complete server snapshot.
type State struct {
	// Incarnation identifies the server process that wrote the snapshot.
	Incarnation uint64
	// Seq is the checkpoint sequence number; it orders files on disk.
	// Writer.Write maintains it: each write gets a fresh sequence, resuming
	// past whatever files already exist in the directory, so checkpoints
	// never overwrite each other across process restarts. A caller may
	// pre-set a higher value to skip ahead; lower values are ignored.
	Seq uint64
	// WallNano is the wall-clock capture time (UnixNano).
	WallNano int64
	// NumWorkers and BlockShift echo the server configuration; Restore
	// validates them against the target's geometry.
	NumWorkers int
	BlockShift uint
	// Shards holds one entry per server shard.
	Shards []ShardState
}

// NumLayers returns the total global layer count across shards.
func (st *State) NumLayers() int {
	n := 0
	for i := range st.Shards {
		n += len(st.Shards[i].Layers)
	}
	return n
}

// CaptureStats reports what one incremental capture copied. BlocksCopied
// counts dirty-tracking blocks (of M and of every v_k) whose payload was
// copied into the State; BlocksSkipped counts blocks proved unchanged since
// the previous capture and left as-is. Their ratio is the fraction of
// full-snapshot work the version stamps eliminated.
type CaptureStats struct {
	BlocksCopied  uint64
	BlocksSkipped uint64
	// Bytes is the approximate payload size copied (4 bytes per copied
	// model coordinate, M and v_k both).
	Bytes uint64
}

// Add accumulates another capture's counters (used by sharded captures).
func (c *CaptureStats) Add(o CaptureStats) {
	c.BlocksCopied += o.BlocksCopied
	c.BlocksSkipped += o.BlocksSkipped
	c.Bytes += o.Bytes
}

// met holds the package's telemetry handles (DESIGN.md §13 conventions:
// resolved once, atomic updates only).
var met = struct {
	writeSeconds *telemetry.Histogram
	bytesWritten *telemetry.Gauge
	writes       *telemetry.Counter
	copiedBlocks *telemetry.Counter
	skipped      *telemetry.Counter
}{}

func init() {
	reg := telemetry.Default()
	met.writeSeconds = reg.Histogram("dgs_ps_checkpoint_seconds",
		"Wall time of checkpoint encode+write+rename, per checkpoint.",
		telemetry.DurationBuckets())
	met.bytesWritten = reg.Gauge("dgs_ps_checkpoint_bytes",
		"Size of the last checkpoint file written.")
	met.writes = reg.Counter("dgs_ps_checkpoints_total",
		"Checkpoint files written (atomic temp+rename cycles).")
	met.copiedBlocks = reg.Counter("dgs_ps_checkpoint_blocks_copied_total",
		"Dirty-tracking blocks copied by incremental captures.")
	met.skipped = reg.Counter("dgs_ps_checkpoint_blocks_skipped_total",
		"Dirty-tracking blocks proved unchanged and skipped by captures.")
}

// ObserveCapture feeds a capture's counters into telemetry. ps.Server calls
// it from Capture; exposed here so the counters live next to the other
// checkpoint metrics.
func ObserveCapture(cs CaptureStats) {
	met.copiedBlocks.Add(cs.BlocksCopied)
	met.skipped.Add(cs.BlocksSkipped)
}

// Encode serialises st. The output decodes back with Decode.
func Encode(st *State) []byte {
	le := binary.LittleEndian
	nLayers := st.NumLayers()
	hdr := make([]byte, 0, 40+12*nLayers)
	hdr = le.AppendUint64(hdr, st.Incarnation)
	hdr = le.AppendUint64(hdr, st.Seq)
	hdr = le.AppendUint64(hdr, uint64(st.WallNano))
	hdr = le.AppendUint32(hdr, uint32(st.NumWorkers))
	hdr = le.AppendUint32(hdr, uint32(st.BlockShift))
	hdr = le.AppendUint32(hdr, uint32(len(st.Shards)))
	hdr = le.AppendUint32(hdr, uint32(nLayers))
	// Global layer table: size and owning shard for every global layer id.
	// Layer ids must form exactly 0..nLayers-1 across shards.
	sizes := make([]uint64, nLayers)
	shardOf := make([]uint32, nLayers)
	body := 0
	for sh := range st.Shards {
		s := &st.Shards[sh]
		body += 16 * (1 + len(s.Workers))
		for li, gl := range s.Layers {
			sizes[gl] = uint64(s.Sizes[li])
			shardOf[gl] = uint32(sh)
			body += 4*s.Sizes[li]*(1+len(s.Workers)) + 8*len(s.MVer[li])
		}
	}
	for gl := 0; gl < nLayers; gl++ {
		hdr = le.AppendUint64(hdr, sizes[gl])
		hdr = le.AppendUint32(hdr, shardOf[gl])
	}

	buf := make([]byte, 0, 12+len(hdr)+4+body+4)
	buf = le.AppendUint32(buf, fileMagic)
	buf = le.AppendUint32(buf, formatVersion)
	buf = le.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	buf = le.AppendUint32(buf, crc32.Checksum(hdr, crcTable))
	start := len(buf)
	for sh := range st.Shards {
		s := &st.Shards[sh]
		buf = le.AppendUint64(buf, s.T)
		buf = le.AppendUint64(buf, s.CapturedT)
		for li := range s.Layers {
			buf = appendF32s(buf, s.M[li])
			for _, v := range s.MVer[li] {
				buf = le.AppendUint64(buf, v)
			}
		}
		for k := range s.Workers {
			w := &s.Workers[k]
			buf = le.AppendUint64(buf, w.Prev)
			buf = le.AppendUint64(buf, w.Epoch)
			for li := range s.Layers {
				buf = appendF32s(buf, w.V[li])
			}
		}
	}
	return le.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

func appendF32s(b []byte, v []float32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// Decode parses an encoded checkpoint, validating magic, version, both
// CRCs, the geometry, and the body length the geometry implies.
func Decode(b []byte) (*State, error) {
	le := binary.LittleEndian
	if len(b) < 12 {
		return nil, errors.New("checkpoint: file shorter than fixed header")
	}
	if le.Uint32(b) != fileMagic {
		return nil, errors.New("checkpoint: bad magic")
	}
	if v := le.Uint32(b[4:]); v != formatVersion {
		return nil, fmt.Errorf("%w %d (this build reads version %d)", ErrFormatVersion, v, formatVersion)
	}
	hdrLen := int(le.Uint32(b[8:]))
	if hdrLen < 0 || hdrLen > len(b)-20 {
		return nil, fmt.Errorf("checkpoint: header length %d exceeds %d remaining bytes", hdrLen, len(b)-20)
	}
	hdr := b[12 : 12+hdrLen]
	if crc32.Checksum(hdr, crcTable) != le.Uint32(b[12+hdrLen:]) {
		return nil, errors.New("checkpoint: header CRC mismatch")
	}
	body := b[16+hdrLen : len(b)-4]
	st, err := decodeHeader(hdr, len(body))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(body, crcTable) != le.Uint32(b[len(b)-4:]) {
		return nil, errors.New("checkpoint: body CRC mismatch")
	}
	r := reader{body}
	for sh := range st.Shards {
		s := &st.Shards[sh]
		s.T = r.u64()
		s.CapturedT = r.u64()
		s.M = make([][]float32, len(s.Sizes))
		s.MVer = make([][]uint64, len(s.Sizes))
		for li, n := range s.Sizes {
			s.M[li] = r.f32s(n)
			s.MVer[li] = make([]uint64, numBlocks(n, st.BlockShift))
			for i := range s.MVer[li] {
				s.MVer[li][i] = r.u64()
			}
		}
		s.Workers = make([]WorkerState, st.NumWorkers)
		for k := range s.Workers {
			w := &s.Workers[k]
			w.Prev = r.u64()
			w.Epoch = r.u64()
			w.V = make([][]float32, len(s.Sizes))
			for li, n := range s.Sizes {
				w.V[li] = r.f32s(n)
			}
		}
	}
	return st, nil
}

// decodeHeader validates the header geometry and requires the body length
// it implies to equal bodyLen before allocating the State.
func decodeHeader(hdr []byte, bodyLen int) (*State, error) {
	le := binary.LittleEndian
	const fixed = 8 + 8 + 8 + 4 + 4 + 4 + 4
	if len(hdr) < fixed {
		return nil, errors.New("checkpoint: truncated header")
	}
	workers := le.Uint32(hdr[24:])
	shift := uint(le.Uint32(hdr[28:]))
	nShards := int(le.Uint32(hdr[32:]))
	nLayers := int(le.Uint32(hdr[36:]))
	if workers < 1 || workers > 1<<20 {
		return nil, fmt.Errorf("checkpoint: implausible worker count %d", workers)
	}
	if shift == 0 || shift > 30 {
		return nil, fmt.Errorf("checkpoint: block shift %d out of (0,30]", shift)
	}
	if nShards < 1 || nLayers < 1 || nShards > nLayers {
		return nil, fmt.Errorf("checkpoint: implausible geometry (%d shards, %d layers)", nShards, nLayers)
	}
	// The layer table ends the header.
	if (len(hdr)-fixed)%12 != 0 || (len(hdr)-fixed)/12 != nLayers {
		return nil, fmt.Errorf("checkpoint: %d-byte header does not hold exactly %d layers", len(hdr), nLayers)
	}
	// The body length the geometry implies: per shard T and CapturedT, and
	// per shard and worker Prev and Epoch; per layer M, MVer and one V per
	// worker. Every term is below 2^57 and the sum stops growing once it
	// passes the bytes present, so no geometry can overflow it.
	want := uint64(bodyLen)
	need := 16 * uint64(nShards) * (1 + uint64(workers))
	for gl := 0; gl < nLayers && need <= want; gl++ {
		size := le.Uint64(hdr[fixed+12*gl:])
		shard := int(le.Uint32(hdr[fixed+12*gl+8:]))
		if size > 1<<31 {
			return nil, fmt.Errorf("checkpoint: layer %d size %d implausible", gl, size)
		}
		if shard < 0 || shard >= nShards {
			return nil, fmt.Errorf("checkpoint: layer %d assigned to shard %d of %d", gl, shard, nShards)
		}
		need += 4*size*(1+uint64(workers)) + 8*uint64(numBlocks(int(size), shift))
	}
	if need != want {
		return nil, fmt.Errorf("checkpoint: geometry implies a body of %d bytes or more, file holds %d", need, want)
	}
	st := &State{
		Incarnation: le.Uint64(hdr),
		Seq:         le.Uint64(hdr[8:]),
		WallNano:    int64(le.Uint64(hdr[16:])),
		NumWorkers:  int(workers),
		BlockShift:  shift,
		Shards:      make([]ShardState, nShards),
	}
	for gl := 0; gl < nLayers; gl++ {
		s := &st.Shards[le.Uint32(hdr[fixed+12*gl+8:])]
		s.Layers = append(s.Layers, gl)
		s.Sizes = append(s.Sizes, int(le.Uint64(hdr[fixed+12*gl:])))
	}
	for sh := range st.Shards {
		if len(st.Shards[sh].Layers) == 0 {
			return nil, fmt.Errorf("checkpoint: shard %d owns no layers", sh)
		}
	}
	return st, nil
}

// reader consumes a body whose length decodeHeader has already checked, so
// no read can run past it.
type reader struct{ b []byte }

func (r *reader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) f32s(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[4*i:]))
	}
	r.b = r.b[4*n:]
	return out
}

// numBlocks mirrors sparse.NumBlocks without importing it (checkpoint stays
// leaf-level: telemetry is its only repo dependency).
func numBlocks(n int, shift uint) int {
	if n <= 0 {
		return 0
	}
	return (n + (1 << shift) - 1) >> shift
}

// Writer writes checkpoints atomically into a directory, pruning old files.
// It is not safe for concurrent use; the checkpointer goroutine owns it.
type Writer struct {
	// Dir is the checkpoint directory (created on first Write).
	Dir string
	// Keep bounds how many checkpoint files are retained (minimum and
	// default 2: the latest plus one fallback in case the latest is found
	// corrupt on restart).
	Keep int

	// seq is the next sequence number to assign, initialised on first
	// Write to one past the newest file already in Dir.
	seq     uint64
	seqInit bool
}

// filePrefix/fileSuffix name checkpoint files ckpt-<seq, 16 hex digits>.dgsk
// so lexicographic order is sequence order.
const (
	filePrefix = "ckpt-"
	fileSuffix = ".dgsk"
)

// FileName returns the on-disk name for a checkpoint sequence number.
func FileName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", filePrefix, seq, fileSuffix)
}

// Write encodes st and atomically installs it as Dir/ckpt-<seq>.dgsk:
// temp file in the same directory, fsync, rename, directory fsync. Old
// checkpoints beyond Keep are pruned afterwards. Returns the final path.
func (w *Writer) Write(st *State) (string, error) {
	t0 := time.Now()
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: mkdir: %w", err)
	}
	if !w.seqInit {
		w.seq = nextSeq(w.Dir)
		w.seqInit = true
	}
	if st.Seq < w.seq {
		st.Seq = w.seq
	}
	enc := Encode(st)
	final := filepath.Join(w.Dir, FileName(st.Seq))
	tmp, err := os.CreateTemp(w.Dir, filePrefix+"tmp-*")
	if err != nil {
		return "", fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		cleanup()
		return "", fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return "", fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return "", fmt.Errorf("checkpoint: rename: %w", err)
	}
	// Sync the directory so the rename itself is durable; best effort on
	// filesystems that refuse directory fsync.
	if d, err := os.Open(w.Dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	w.seq = st.Seq + 1
	w.prune()
	met.writes.Inc()
	met.bytesWritten.Set(float64(len(enc)))
	met.writeSeconds.Observe(time.Since(t0).Seconds())
	return final, nil
}

// nextSeq returns one past the newest checkpoint sequence already in dir,
// so a restarted server's writes never overwrite its predecessor's files.
func nextSeq(dir string) uint64 {
	names := listCheckpoints(dir)
	if len(names) == 0 {
		return 0
	}
	last := names[len(names)-1]
	s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(last, filePrefix), fileSuffix), 16, 64)
	if err != nil {
		return 0
	}
	return s + 1
}

// prune removes the oldest checkpoint files beyond the retention bound.
func (w *Writer) prune() {
	keep := w.Keep
	if keep < 2 {
		keep = 2
	}
	names := listCheckpoints(w.Dir)
	for i := 0; i+keep < len(names); i++ {
		os.Remove(filepath.Join(w.Dir, names[i])) //nolint:errcheck
	}
}

// listCheckpoints returns checkpoint file names in ascending sequence order.
func listCheckpoints(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, filePrefix) && strings.HasSuffix(n, fileSuffix) &&
			!strings.Contains(n, "tmp") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Load reads and decodes one checkpoint file.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	st, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode %s: %w", path, err)
	}
	return st, nil
}

// LoadLatest returns the newest checkpoint in dir that decodes cleanly,
// together with its path. Corrupt or truncated files (e.g. the latest one
// when the machine died mid-rename on a weak filesystem) are skipped in
// favour of the previous checkpoint; a file of another format version is
// not, and its ErrFormatVersion is returned at once. Returns
// ErrNoCheckpoint when the directory holds nothing usable (including when
// it does not exist).
func LoadLatest(dir string) (*State, string, error) {
	names := listCheckpoints(dir)
	var lastErr error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		st, err := Load(path)
		if err == nil {
			return st, path, nil
		}
		if errors.Is(err, ErrFormatVersion) {
			return nil, path, err
		}
		lastErr = err
	}
	if lastErr != nil {
		return nil, "", fmt.Errorf("%w (last error: %v)", ErrNoCheckpoint, lastErr)
	}
	return nil, "", ErrNoCheckpoint
}
