// Package checkpoint implements the durable stores behind the incremental
// Session's crash recovery: an epoch store of versioned, CRC-checksummed
// segment files written atomically, with a manifest naming the latest valid
// epoch and load-time fallback past torn or corrupt files, plus the
// mutation write-ahead log (wal.go).
//
// One epoch file holds one recovery point as a list of named segments
// (graph, per-layer slabs, replay mark — the store never interprets them). The write protocol makes a crash at any instant
// recoverable:
//
//  1. the whole epoch is serialized into epoch.tmp (a recycled scratch file
//     whose pages are overwritten in place), fsynced, and closed — a crash
//     here leaves only the tmp file, which loads ignore;
//  2. the tmp file is renamed to epoch-N.ckpt and the directory fsynced —
//     rename is atomic on POSIX, so the visible file is always complete;
//  3. MANIFEST is updated through the same tmp+rename dance (never fsynced —
//     it is only a load-time hint) to name the new epoch — a crash between
//     2 and 3 leaves a valid epoch the directory scan still finds.
//
// A store may also hold links: smaller files in the same format, each bound
// to one base epoch by name (link-<epoch>-<index>.ckpt) and numbered from 1.
// Links are written through the same tmp+fsync+rename protocol (on their own
// tmp file), are invisible to Load, and are pruned with their base. A
// caller that records state as a base plus deltas reads them back with
// LoadLink until the first missing or invalid index: the chain's longest
// valid prefix.
//
// Every segment carries a CRC-32C, and the file ends in a footer magic, so
// torn writes that survive the rename protocol anyway (lost tail on power
// failure, bit rot) are detected at load; Load then falls back to the next
// newest epoch that validates. Transient IO errors during Save are retried
// with bounded exponential backoff before the error surfaces. SyncMode
// trades durability class for fsync latency: SyncAlways (default) survives
// power loss, SyncNever survives process crashes only.
package checkpoint

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Segment is one named blob inside an epoch file. The store checksums and
// stores it verbatim; naming and content layout belong to the writer.
type Segment struct {
	Name string
	Data []byte
}

const (
	fileMagic   = "ITCKPT01" // header magic + format version in one token
	footerMagic = "ITCKEND1" // present iff the file was written to its end
	manifest    = "MANIFEST"
	epochPrefix = "epoch-"
	epochSuffix = ".ckpt"
	epochTmp    = "epoch.tmp" // shared scratch file; loads never consider it
	linkPrefix  = "link-"
	linkTmp     = "link.tmp"

	defaultRetries = 3
	defaultBackoff = 10 * time.Millisecond
	defaultKeep    = 2
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects how hard the store pushes an epoch toward stable storage
// before reporting it saved.
type SyncMode int

const (
	// SyncAlways fsyncs every epoch file and its directory entry: epochs
	// survive OS crashes and power loss. This is the default.
	SyncAlways SyncMode = iota
	// SyncNever skips fsync entirely. Epochs are still written to a temp
	// name and atomically renamed, so every visible file is complete, and a
	// SIGKILLed process finds its checkpoints on restart (the page cache
	// survives process death) — but an OS crash or power failure may lose
	// the newest epochs. Load's descending scan then recovers from whatever
	// survived. The mode exists because fsync latency on commodity disks
	// (5–30ms per journal commit) can exceed a whole delta refresh.
	SyncNever
)

// Store is one directory of epoch files plus a manifest. A Store is not
// safe for concurrent use by multiple goroutines; the Session's single
// persister goroutine is the intended caller.
type Store struct {
	dir   string
	epoch int // next epoch number to write

	// Retries bounds Save's attempts per epoch (total tries = Retries+1);
	// Backoff is the first retry's delay, doubling per attempt. Zero values
	// select the defaults (3 retries, 10ms).
	Retries int
	Backoff time.Duration

	// Sync selects the durability level (default SyncAlways: power-loss
	// durable; SyncNever: process-crash durable only, no fsync).
	Sync SyncMode

	// sleep and writeHook are test seams: sleep replaces time.Sleep so
	// backoff tests run instantly, and a non-nil writeHook runs before each
	// write attempt and may return an injected error.
	sleep     func(time.Duration)
	writeHook func(attempt int) error

	bytesWritten int64
	scratch      []byte        // reused header-encode scratch (Store is single-goroutine)
	w            *bufio.Writer // reused epoch writer; holds no file between saves
}

// NewStore opens (creating if needed) the epoch directory. Epoch numbering
// continues past the highest existing file, so a resumed process never
// overwrites the checkpoints it is resuming from.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	s := &Store{dir: dir, sleep: time.Sleep}
	epochs, err := s.listEpochs()
	if err != nil {
		return nil, err
	}
	if len(epochs) > 0 {
		s.epoch = epochs[len(epochs)-1] + 1
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// BytesWritten reports the total epoch-file bytes successfully persisted —
// the checkpoint-volume figure surfaced in run stats.
func (s *Store) BytesWritten() int64 { return s.bytesWritten }

// LastEpoch returns the number of the newest epoch this store has written
// or found on open, -1 if none.
func (s *Store) LastEpoch() int { return s.epoch - 1 }

func epochPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", epochPrefix, epoch, epochSuffix))
}

func linkPath(dir string, base, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d-%08d%s", linkPrefix, base, idx, epochSuffix))
}

// listEpochs returns the epoch numbers present in the directory, ascending.
func (s *Store) listEpochs() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan dir: %w", err)
	}
	var epochs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, epochPrefix) || !strings.HasSuffix(name, epochSuffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, epochPrefix), epochSuffix), "%d", &n); err == nil {
			epochs = append(epochs, n)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// epochSize is the exact on-disk size of an epoch holding segs.
func epochSize(segs []Segment) int {
	size := len(fileMagic) + 12 + len(footerMagic)
	for _, sg := range segs {
		size += 8 + len(sg.Name) + 12 + len(sg.Data)
	}
	return size
}

// decode parses and validates one epoch file's bytes: magic, per-segment
// CRCs, footer. Any mismatch returns an error — the caller treats the file
// as torn and falls back.
//
// Segment data aliases b, capacity-capped so an append to one segment
// cannot overwrite the next: b is read fresh per load and never reused, so
// a copy per segment would only double the load's memory traffic.
func decode(b []byte) (step int, segs []Segment, err error) {
	if len(b) < len(fileMagic)+len(footerMagic) || string(b[:len(fileMagic)]) != fileMagic {
		return 0, nil, fmt.Errorf("checkpoint: bad file magic")
	}
	if string(b[len(b)-len(footerMagic):]) != footerMagic {
		return 0, nil, fmt.Errorf("checkpoint: missing footer (torn write)")
	}
	r := NewReader(b[len(fileMagic) : len(b)-len(footerMagic)])
	step = int(r.U64())
	n := int(r.U32())
	for i := 0; i < n; i++ {
		name := r.String()
		dataLen := r.length(1)
		sum := r.U32()
		data := r.take(dataLen)
		if r.Err() != nil {
			return 0, nil, fmt.Errorf("checkpoint: segment %d truncated", i)
		}
		if crc32.Checksum(data, castagnoli) != sum {
			return 0, nil, fmt.Errorf("checkpoint: segment %q checksum mismatch", name)
		}
		segs = append(segs, Segment{Name: name, Data: data[:len(data):len(data)]})
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("checkpoint: malformed epoch file")
	}
	return step, segs, nil
}

// Save writes one epoch durably, retrying transient IO errors with bounded
// exponential backoff, then points the manifest at it and prunes epochs
// beyond the retained window.
func (s *Store) Save(step int, segs []Segment) error {
	epoch := s.epoch
	if err := s.retry(func(attempt int) error {
		return s.writeFile(epochTmp, epochPath(s.dir, epoch), step, segs, attempt)
	}); err != nil {
		return fmt.Errorf("checkpoint: save epoch %d: %w", epoch, err)
	}
	s.epoch = epoch + 1
	s.bytesWritten += int64(epochSize(segs))
	if err := s.writeManifest(epoch); err != nil {
		// The epoch file itself is durable and the directory scan finds it;
		// a stale manifest only costs the next Load a validation pass.
		return nil
	}
	s.prune(epoch)
	return nil
}

// SaveLink durably writes link idx of base epoch base, with the same
// protocol, checksums and retries as Save. It neither touches the manifest
// nor prunes: links live and die with their base.
func (s *Store) SaveLink(base, idx, step int, segs []Segment) error {
	if err := s.retry(func(attempt int) error {
		return s.writeFile(linkTmp, linkPath(s.dir, base, idx), step, segs, attempt)
	}); err != nil {
		return fmt.Errorf("checkpoint: save link %d of epoch %d: %w", idx, base, err)
	}
	s.bytesWritten += int64(epochSize(segs))
	return nil
}

// LoadLink reads and validates link idx of base epoch base. Any error —
// missing, torn or corrupt — ends the chain there.
func (s *Store) LoadLink(base, idx int) (step int, segs []Segment, err error) {
	return loadFile(linkPath(s.dir, base, idx))
}

// retry runs write with bounded exponential backoff between attempts.
func (s *Store) retry(write func(attempt int) error) error {
	retries, backoff := s.Retries, s.Backoff
	if retries <= 0 {
		retries = defaultRetries
	}
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	for attempt := 0; ; attempt++ {
		err := write(attempt)
		if err == nil || attempt >= retries {
			return err
		}
		s.sleep(backoff << attempt)
	}
}

// writeFile is one attempt at the tmp+fsync+rename protocol: segs go to
// the scratch file tmpName, which is then renamed onto final.
func (s *Store) writeFile(tmpName, final string, step int, segs []Segment, attempt int) error {
	if s.writeHook != nil {
		if err := s.writeHook(attempt); err != nil {
			return err
		}
	}
	tmp := filepath.Join(s.dir, tmpName)
	if err := s.streamEpoch(tmp, step, segs); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if s.Sync != SyncAlways {
		return nil
	}
	return syncDir(s.dir)
}

// streamEpoch writes header, checksummed segments and footer through one
// buffered writer — segment payloads go straight from the caller's memory
// to the file, never assembled into an epoch-sized blob first.
func (s *Store) streamEpoch(path string, step int, segs []Segment) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if s.w == nil {
		s.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		s.w.Reset(f)
	}
	w := s.w
	defer w.Reset(nil)
	hdr := s.scratch[:0]
	hdr = append(hdr, fileMagic...)
	hdr = AppendU64(hdr, uint64(step))
	hdr = AppendU32(hdr, uint32(len(segs)))
	w.Write(hdr)
	for _, sg := range segs {
		hdr = hdr[:0]
		hdr = AppendString(hdr, sg.Name)
		hdr = AppendU64(hdr, uint64(len(sg.Data)))
		hdr = AppendU32(hdr, crc32.Checksum(sg.Data, castagnoli))
		w.Write(hdr)
		w.Write(sg.Data) // large payloads bypass the buffer copy
	}
	w.WriteString(footerMagic)
	s.scratch = hdr[:0]
	if err := w.Flush(); err != nil { // bufio errors are sticky; one check covers all writes
		f.Close()
		return err
	}
	if err := f.Truncate(int64(epochSize(segs))); err != nil {
		f.Close()
		return err
	}
	if s.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// writeManifest never fsyncs regardless of mode: the manifest is only a
// load-time hint, and a stale or lost one costs the next Load a directory
// scan, not data — while each fsync costs a journal commit.
func (s *Store) writeManifest(epoch int) error {
	tmp := filepath.Join(s.dir, manifest+".tmp")
	if err := writeFile(tmp, []byte(filepath.Base(epochPath(s.dir, epoch))+"\n")); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifest)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// prune retires epochs older than the retained window (the newest
// defaultKeep files stay: the latest epoch plus its fallback), and the links
// of every epoch it retires. The newest
// retired file is renamed onto the shared tmp name instead of unlinked, so
// the next epoch overwrites its already-allocated pages in place — kernel
// page allocation for a fresh multi-megabyte file can cost an order of
// magnitude more than the data copy on virtualized hosts, and epochs are
// all about the same size.
func (s *Store) prune(latest int) {
	epochs, err := s.listEpochs()
	if err != nil {
		return
	}
	cutoff := latest - (defaultKeep - 1)
	recycled := false
	for i := len(epochs) - 1; i >= 0; i-- {
		n := epochs[i]
		if n >= cutoff {
			continue
		}
		if !recycled && os.Rename(epochPath(s.dir, n), filepath.Join(s.dir, epochTmp)) == nil {
			recycled = true
			continue
		}
		os.Remove(epochPath(s.dir, n))
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		var base, idx int
		if _, err := fmt.Sscanf(e.Name(), linkPrefix+"%d-%d"+epochSuffix, &base, &idx); err == nil && base < cutoff {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Load returns the newest valid epoch: the manifest's candidate first, then
// a descending directory scan past any torn or corrupt files. found=false
// means nothing recoverable exists (not an error — a cold start).
func (s *Store) Load() (int, []Segment, bool, error) {
	_, step, segs, found, err := s.LoadEpoch()
	return step, segs, found, err
}

// LoadEpoch is Load that also reports which epoch it returned — the base a
// chain of links hangs off.
func (s *Store) LoadEpoch() (epoch, step int, segs []Segment, found bool, err error) {
	tried := map[string]bool{}
	epochs, err := s.listEpochs()
	if err != nil {
		return 0, 0, nil, false, err
	}
	if name := s.manifestTarget(); name != "" {
		tried[name] = true
		for _, n := range epochs {
			if filepath.Base(epochPath(s.dir, n)) != name {
				continue
			}
			if step, segs, err := loadFile(epochPath(s.dir, n)); err == nil {
				return n, step, segs, true, nil
			}
		}
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		path := epochPath(s.dir, epochs[i])
		if tried[filepath.Base(path)] {
			continue
		}
		if step, segs, err := loadFile(path); err == nil {
			return epochs[i], step, segs, true, nil
		}
	}
	return 0, 0, nil, false, nil
}

func (s *Store) manifestTarget() string {
	b, err := os.ReadFile(filepath.Join(s.dir, manifest))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func loadFile(path string) (int, []Segment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return decode(b)
}

// writeFile writes b over path's existing pages (no O_TRUNC — truncating up
// front would free them) and truncates to the final size afterwards, so a
// recycled tmp file's page allocations are reused epoch after epoch.
func writeFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Truncate(int64(len(b))); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable; filesystems
// that refuse fsync on directories are quietly tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
