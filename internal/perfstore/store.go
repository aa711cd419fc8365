// Package perfstore is the storage layer over a perflog tree: a
// concurrent, sharded in-memory index with incremental (checkpointed)
// ingest, a small query engine, and a regression evaluator. It is the
// continuous-benchmarking piece the paper's conclusion calls for —
// perflogs "generated on isolated systems" are assimilated once, kept
// hot, and served to many readers (the perfplot CLI and the benchd
// daemon share this one query path) instead of being re-parsed from
// flat files on every invocation.
//
// Ingest is append-only and keyed on (system, benchmark), matching the
// <root>/<system>/<benchmark>.log layout perflog.Append writes. Each
// file carries a byte-offset checkpoint: a re-sync seeks to the
// checkpoint and parses only bytes appended since, so re-ingesting an
// unchanged tree parses zero bytes.
package perfstore

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/perflog"
	"repro/internal/telemetry"
)

// Ingest metrics: how much work the incremental sync is doing. A warm
// store scanning an unchanged tree grows files_scanned but neither
// bytes nor entries — the checkpoint test's "zero parsed bytes"
// invariant, observable from /metrics.
var (
	metricIngestBytes = telemetry.DefaultRegistry.Counter(
		"perfstore_ingest_bytes_total",
		"Perflog bytes parsed by incremental ingest.").With()
	metricIngestEntries = telemetry.DefaultRegistry.Counter(
		"perfstore_ingest_entries_total",
		"Perflog entries added to the store by ingest.").With()
	metricIngestFiles = telemetry.DefaultRegistry.Counter(
		"perfstore_ingest_files_scanned_total",
		"Perflog files examined by ingest (including no-op checkpoint hits).").With()
	metricSyncSeconds = telemetry.DefaultRegistry.Histogram(
		"perfstore_sync_seconds",
		"Wall-clock duration of one SyncFile call.",
		nil).With()
	// Query-path metrics: which plan served each Select/Aggregate —
	// "postings" (posting-list intersection) or "time" (the ordered
	// time view). The linear reference scan is test/bench-only and has
	// no series here.
	metricSelects = telemetry.DefaultRegistry.Counter(
		"perfstore_query_total",
		"Queries served, by plan path.",
		"path")
)

// shardCount fixes the number of index shards. Sharding is by system:
// ingest for a system touches one shard's lock, so ingest on one system
// never blocks reads on another, and queries fan out across shards on a
// bounded worker pool.
const shardCount = 16

// checkpoint is the incremental-ingest state of one perflog file.
type checkpoint struct {
	offset int64 // bytes consumed through the last complete line
}

// Stats counts ingest work and reports the storage-tier shape; the
// checkpoint tests assert a no-op re-sync parses zero bytes, the boot
// tests assert a sealed store restarts with BytesParsed == 0.
type Stats struct {
	FilesScanned int
	BytesParsed  int64
	EntriesAdded int
	Entries      int
	Systems      int
	// Tier breakdown: Entries == HeadEntries + SealedEntries.
	HeadEntries         int
	SealedEntries       int
	SealedSegments      int
	ManifestGeneration  uint64
	SegmentLoadFailures int
}

// rsdGate resolves the store's effective variance-gate threshold.
func (s *Store) rsdGate() float64 {
	switch {
	case s.RSDGate > 0:
		return s.RSDGate
	case s.RSDGate < 0:
		return 0 // explicitly disabled
	default:
		return DefaultRSDGate
	}
}

// Store is the concurrent perflog store: a mutable head (the sharded
// in-memory index, fed by checkpointed ingest) plus, when opened with
// OpenTiered, a sealed tier of immutable on-disk segments. Queries fan
// out over both tiers and merge in (time, ingest-seq) order.
type Store struct {
	root    string
	dataDir string // "" = memory-only store (no sealed tier)

	// RSDGate is the run-to-run relative-standard-deviation threshold for
	// the variance gate on aggregates and regression verdicts; 0 selects
	// DefaultRSDGate, negative disables the gate. Set before serving
	// queries (not synchronized against concurrent readers).
	RSDGate float64

	shards [shardCount]shard

	// seq hands out the store-wide ingest sequence that breaks
	// timestamp ties; gen counts index mutations (adds, evictions,
	// seals, compactions) so readers can stamp derived results and
	// detect staleness with one atomic load (the service layer's
	// aggregate cache).
	seq atomic.Uint64
	gen atomic.Uint64

	ckMu  sync.Mutex
	ck    map[string]*checkpoint
	stats struct {
		sync.Mutex
		filesScanned int
		bytesParsed  int64
		entriesAdded int
	}

	// seg is the sealed tier: the live segment handles and the manifest
	// they mirror. Queries hold the read lock across their whole fan so
	// a concurrent Seal (which appends a segment and clears the head
	// under the write lock) is atomic to them — an entry is observed in
	// exactly one tier. Lock order: ckMu → seg → shard.
	seg struct {
		sync.RWMutex
		list []*segment
		man  *manifest
	}
	loadFail struct {
		sync.Mutex
		n    int
		last string
	}
}

// Open returns a memory-only store over a perflog root directory. No
// ingest happens until Sync (or Append) is called; the directory need
// not exist yet.
func Open(root string) *Store {
	s := &Store{root: root, ck: map[string]*checkpoint{}}
	for i := range s.shards {
		s.shards[i].init()
	}
	s.seg.man = &manifest{Version: manifestVersion, Watermarks: map[string]int64{}}
	return s
}

// OpenTiered returns a store whose sealed tier lives in dataDir: the
// manifest is read, every named segment's header is validated (zone
// maps become queryable; data blocks stay on disk until a query needs
// them), ingest checkpoints are restored from the sealed watermarks,
// and orphans from crashed seals are swept. Boot cost is O(segment
// headers); the subsequent Sync re-parses only perflog bytes past the
// watermarks. Any validation failure is returned — the caller's
// fallback is Open plus a full Sync, rebuilding everything from the
// text tree (which remains the source of truth).
func OpenTiered(root, dataDir string) (*Store, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("perfstore: %w", err)
	}
	man, err := loadManifest(dataDir)
	if err != nil {
		return nil, err
	}
	s := Open(root)
	s.dataDir = dataDir
	segs := make([]*segment, 0, len(man.Segments))
	for _, info := range man.Segments {
		hdr, err := readSegmentHeader(filepath.Join(dataDir, info.File))
		if err != nil {
			return nil, fmt.Errorf("perfstore: segment %s: %w", info.File, err)
		}
		if hdr.Count != info.Count || hdr.MinSeq != info.MinSeq || hdr.MaxSeq != info.MaxSeq {
			return nil, fmt.Errorf("perfstore: segment %s disagrees with manifest", info.File)
		}
		segs = append(segs, &segment{dir: dataDir, info: info})
	}
	s.seg.man = man
	s.seg.list = segs
	// Restart the ingest sequence past everything sealed, so (time,
	// seq) ordering stays total across the tiers after a reboot.
	s.seq.Store(man.MaxSeq)
	for rel, off := range man.Watermarks {
		s.ck[s.absSource(rel)] = &checkpoint{offset: off}
	}
	cleanOrphans(dataDir, man)
	return s, nil
}

// DataDir returns the sealed tier's directory ("" for a memory-only
// store).
func (s *Store) DataDir() string { return s.dataDir }

// noteLoadFailure records a segment whose data block could not be
// loaded after retries: the query proceeds without it, and the
// degradation is visible in Stats, /healthz, and /metrics rather than
// silent.
func (s *Store) noteLoadFailure(err error) {
	metricSegLoadFailures.Inc()
	s.loadFail.Lock()
	s.loadFail.n++
	s.loadFail.last = err.Error()
	s.loadFail.Unlock()
}

// Generation returns the index mutation counter. Any result computed
// from the store can be stamped with the generation observed before the
// computation; the stamp still matching means no entry was added or
// evicted since, so the result is current.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Root returns the perflog tree this store ingests from.
func (s *Store) Root() string { return s.root }

func (s *Store) shardFor(system string) *shard {
	h := fnv.New32a()
	h.Write([]byte(system))
	return &s.shards[h.Sum32()%shardCount]
}

// SyncResult counts what one reconcile ingested: the files whose size
// no longer matched their checkpoint (and were therefore opened), and
// the bytes parsed and entries added from them.
type SyncResult struct {
	Files   int   `json:"files"`
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// Sync reconciles the store with the perflog tree; see Reconcile.
func (s *Store) Sync() error {
	_, err := s.Reconcile()
	return err
}

// Reconcile walks the perflog tree and ingests every .log file whose
// size differs from its checkpoint. The walk is stat-only: an unchanged
// file costs one lstat and a map lookup against a checkpoint snapshot
// taken under a single ckMu hold, and only new, grown or shrunk files
// are opened and parsed (through SyncFile, which re-checks the size on
// the open descriptor, so a stale snapshot can only cost a no-op open).
// The "perfstore.sync" injection point fires once before the walk, and
// again in each SyncFile.
func (s *Store) Reconcile() (SyncResult, error) {
	var res SyncResult
	if err := faultinject.Fire("perfstore.sync"); err != nil {
		return res, fmt.Errorf("perfstore: %w", err)
	}
	s.ckMu.Lock()
	offsets := make(map[string]int64, len(s.ck))
	for path, ck := range s.ck {
		offsets[path] = ck.offset
	}
	s.ckMu.Unlock()
	unchanged := 0
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == s.root && errors.Is(err, fs.ErrNotExist) {
				return fs.SkipAll // nothing logged yet
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".log") {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // removed since the directory was read
		}
		if err != nil {
			return err
		}
		if off, ok := offsets[path]; ok && info.Size() == off {
			unchanged++
			return nil
		}
		parsed, added, err := s.syncFile(path)
		res.Files++
		res.Bytes += parsed
		res.Entries += added
		return err
	})
	s.bumpStats(unchanged, 0, 0)
	return res, err
}

// SyncFile incrementally ingests one perflog file: it seeks to the
// file's checkpoint and parses only complete lines appended since. A
// line still being written (no trailing newline yet) is left for the
// next sync. If the file shrank below its checkpoint it was truncated
// or rewritten, so its previous entries are evicted and it is re-read
// from the start.
//
// Injection points: "perfstore.sync" fires before any work (a failed
// re-sync, e.g. the filesystem dropping out from under the daemon);
// "perfstore.read" can truncate the read stream early (a short read).
// A short read is indistinguishable from a writer mid-append, so the
// checkpoint simply stays before the torn tail and the next sync
// re-reads it whole — fault tolerance by the same mechanism as normal
// incremental ingest.
func (s *Store) SyncFile(path string) error {
	_, _, err := s.syncFile(path)
	return err
}

// syncFile is SyncFile reporting the bytes it parsed and the entries it
// added.
func (s *Store) syncFile(path string) (int64, int, error) {
	if err := faultinject.Fire("perfstore.sync"); err != nil {
		return 0, 0, fmt.Errorf("perfstore: %w", err)
	}
	start := time.Now()
	defer func() { metricSyncSeconds.Observe(time.Since(start).Seconds()) }()
	s.ckMu.Lock()
	ck := s.ck[path]
	if ck == nil {
		ck = &checkpoint{}
		s.ck[path] = ck
	}
	s.ckMu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("perfstore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("perfstore: %w", err)
	}

	// Serialize syncs of the same file on its checkpoint: two concurrent
	// SyncFile calls would otherwise double-ingest the same byte range.
	s.ckMu.Lock()
	defer s.ckMu.Unlock()

	if st.Size() < ck.offset {
		if err := s.evictFile(path); err != nil {
			return 0, 0, err
		}
		ck.offset = 0
	}
	if st.Size() == ck.offset {
		s.bumpStats(1, 0, 0)
		return 0, 0, nil
	}
	if _, err := f.Seek(ck.offset, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("perfstore: %w", err)
	}

	r := bufio.NewReaderSize(faultinject.Reader("perfstore.read", f), 64*1024)
	var parsed int64
	var batch []*perflog.Entry
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			// Partial trailing line: a writer is mid-append. Leave the
			// checkpoint before it so the next sync picks it up whole.
			break
		}
		if err != nil {
			s.addBatch(batch, path)
			return 0, 0, fmt.Errorf("perfstore: %w", err)
		}
		n := int64(len(line))
		text := strings.TrimSpace(line)
		if text != "" && !strings.HasPrefix(text, "#") {
			e, perr := perflog.ParseLine(text)
			if perr != nil {
				// Entries whose offsets the checkpoint already covers
				// must be indexed even though the file is bad past them.
				s.addBatch(batch, path)
				return 0, 0, fmt.Errorf("perfstore: %s @%d: %w", path, ck.offset+parsed, perr)
			}
			batch = append(batch, e)
		}
		parsed += n
		ck.offset += n
	}
	s.addBatch(batch, path)
	s.bumpStats(1, parsed, len(batch))
	return parsed, len(batch), nil
}

// AddBatch ingests one durable group commit from a perflog.Writer
// without touching the file: the entries are already parsed and their
// byte extent is known exactly. When the file's checkpoint sits at the
// commit's start offset — the steady state with the Writer as the
// file's only appender — the batch is indexed in one shard pass and the
// checkpoint advances over bytes ingest never has to read back, with
// the stats reporting true ingest work (entries added, zero bytes
// parsed). Any
// other checkpoint position means unknown bytes precede the commit
// (out-of-band benchctl appends, or an earlier notification this method
// declined), so it declines too, reporting false: the next SyncFile
// parses the gap from the file itself, which stays correct — just not
// zero-copy. Either way acked entries converge into the store.
func (s *Store) AddBatch(c perflog.Commit) bool {
	if len(c.Entries) == 0 {
		return true
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	ck := s.ck[c.Path]
	if ck == nil {
		ck = &checkpoint{}
		s.ck[c.Path] = ck
	}
	if ck.offset != c.Offset {
		return false
	}
	s.addBatch(c.Entries, c.Path)
	ck.offset += c.Bytes
	s.bumpStats(0, 0, len(c.Entries))
	return true
}

// add indexes a single entry — the unit addBatch amortizes.
func (s *Store) add(e *perflog.Entry, file string) {
	sh := s.shardFor(e.System)
	seq := s.seq.Add(1)
	sh.mu.Lock()
	sh.addLocked(e, file, seq)
	sh.mu.Unlock()
	s.gen.Add(1)
}

// addBatch indexes entries under one shard-lock pass per contiguous
// shard run and bumps the generation once for the whole batch — one
// query-cache invalidation per commit instead of one per entry. A
// perflog file holds a single system, so in practice a batch is one
// lock acquisition.
func (s *Store) addBatch(entries []*perflog.Entry, file string) {
	if len(entries) == 0 {
		return
	}
	for i := 0; i < len(entries); {
		sh := s.shardFor(entries[i].System)
		sh.mu.Lock()
		j := i
		for j < len(entries) && s.shardFor(entries[j].System) == sh {
			sh.addLocked(entries[j], file, s.seq.Add(1))
			j++
		}
		sh.mu.Unlock()
		i = j
	}
	s.gen.Add(1)
}

// evictFile removes every entry ingested from one file (truncation
// recovery) from both tiers: the shard indexes are repaired in place,
// and any sealed segments holding the file's entries are rewritten
// without them. Callers hold ckMu.
func (s *Store) evictFile(path string) error {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		removed += sh.evictLocked(path)
		sh.mu.Unlock()
	}
	sealed, err := s.evictSealed(path)
	if err != nil {
		return err
	}
	if removed+sealed > 0 {
		s.gen.Add(1)
	}
	return nil
}

func (s *Store) bumpStats(files int, bytes int64, added int) {
	s.stats.Lock()
	s.stats.filesScanned += files
	s.stats.bytesParsed += bytes
	s.stats.entriesAdded += added
	s.stats.Unlock()
	metricIngestFiles.Add(float64(files))
	metricIngestBytes.Add(float64(bytes))
	metricIngestEntries.Add(float64(added))
}

// Stats reports cumulative ingest counters, current index size, and
// the storage-tier breakdown.
func (s *Store) Stats() Stats {
	s.stats.Lock()
	out := Stats{
		FilesScanned: s.stats.filesScanned,
		BytesParsed:  s.stats.bytesParsed,
		EntriesAdded: s.stats.entriesAdded,
	}
	s.stats.Unlock()
	systems := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for sys := range sh.systems {
			systems[sys] = true
		}
		out.HeadEntries += sh.live
		sh.mu.RUnlock()
	}
	s.seg.RLock()
	for _, g := range s.seg.list {
		out.SealedEntries += g.info.Count
		for _, sys := range g.info.Systems {
			systems[sys] = true
		}
	}
	out.SealedSegments = len(s.seg.list)
	out.ManifestGeneration = s.seg.man.Generation
	s.seg.RUnlock()
	out.Entries = out.HeadEntries + out.SealedEntries
	out.Systems = len(systems)
	s.loadFail.Lock()
	out.SegmentLoadFailures = s.loadFail.n
	s.loadFail.Unlock()
	return out
}

// PublishMetrics pushes the point-in-time tier gauges (head entries,
// sealed entries/segments, manifest generation) into the telemetry
// registry — called on each /metrics scrape so the gauges are fresh
// without a background sampler.
func (s *Store) PublishMetrics() {
	st := s.Stats()
	metricHeadEntries.Set(float64(st.HeadEntries))
	metricSealedEntries.Set(float64(st.SealedEntries))
	metricSealedSegments.Set(float64(st.SealedSegments))
	metricManifestGen.Set(float64(st.ManifestGeneration))
}

// Len returns the number of indexed entries across both tiers.
func (s *Store) Len() int { return s.Stats().Entries }

// Systems lists the indexed system names across both tiers, sorted.
func (s *Store) Systems() []string {
	seen := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for sys := range sh.systems {
			seen[sys] = true
		}
		sh.mu.RUnlock()
	}
	s.seg.RLock()
	for _, g := range s.seg.list {
		for _, sys := range g.info.Systems {
			seen[sys] = true
		}
	}
	s.seg.RUnlock()
	out := make([]string, 0, len(seen))
	for sys := range seen {
		out = append(out, sys)
	}
	sort.Strings(out)
	return out
}

// Select returns the entries matching the query, ordered by timestamp
// ascending (ties keep ingest order). A Limit keeps the most recent
// Limit entries — the tail of the time series.
//
// The plan: every equality predicate (system, benchmark, result, FOM
// presence, extras) is indexed in both tiers, so each head shard and
// each sealed segment intersects the matching posting lists — cost
// proportional to the rarest predicate, not the store. A query with no
// equality predicate reads the time-ordered view (shards) or the
// time-sorted arena (segments), where Since binary-searches its lower
// bound and Limit takes a bounded tail; segments whose zone map ends
// before Since are skipped without touching disk. All legs run in
// parallel on a bounded worker pool and merge in (time, ingest) order;
// with a Limit the merge walks the per-leg tails backwards and stops
// after Limit entries, so the full match set is never materialized.
//
// The segment read lock is held across the whole fan, so a concurrent
// Seal (segment published + head cleared under the write lock) is
// atomic to the query — every entry is observed in exactly one tier.
func (s *Store) Select(q Query) []*perflog.Entry {
	m := q.compile()
	s.seg.RLock()
	defer s.seg.RUnlock()
	segs := s.seg.list
	parts := make([][]hit, shardCount+len(segs))
	fanN(len(parts), func(i int) {
		if i < shardCount {
			parts[i] = s.shards[i].collect(m, q.Limit)
		} else {
			parts[i] = segs[i-shardCount].collect(s, m, q.Limit)
		}
	})
	if len(m.keys) > 0 {
		metricSelects.With("postings").Inc()
	} else {
		metricSelects.With("time").Inc()
	}
	return mergeHits(parts, q.Limit)
}
