package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"sync"

	"repro/internal/flight"
)

// Key is the content address of one stored artifact. All four fields
// participate in the address; together they name "the Stage output of
// running Algorithm on the design with this Fingerprint under these
// Constraints".
type Key struct {
	// Fingerprint is the canonical content hash of the input design
	// (netlist.Fingerprint).
	Fingerprint string
	// Constraints is a canonical rendering of every constraint knob
	// that can change the artifact (e.g. "2x2|convex=true").
	Constraints string
	// Algorithm is the partitioner registry name.
	Algorithm string
	// Stage names the pipeline stage the artifact belongs to
	// ("partitioned", "response.v1", ...). Callers version the stage
	// name when their payload encoding changes, so entries written by
	// an older schema miss instead of misparsing.
	Stage string
}

// String renders the canonical key text the content address is hashed
// from.
func (k Key) String() string {
	return k.Fingerprint + "|" + k.Constraints + "|" + k.Algorithm + "|" + k.Stage
}

// id is the hex SHA-256 of the canonical key text: the entry's file
// name on disk and its name over the remote protocol.
func (k Key) id() string { return idForKeyText(k.String()) }

// validEntryID reports whether name has the exact shape Key.id
// produces: 64 lowercase hex characters.
func validEntryID(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Tier says which cache tier served a Get.
type Tier int

const (
	// TierNone: the key was not found (or its entry was corrupt).
	TierNone Tier = iota
	// TierMemory: served from the in-memory first tier.
	TierMemory
	// TierDisk: read (and checksum-verified) from disk.
	TierDisk
	// TierRemote: fetched (and checksum-verified) from the remote
	// origin, then written through to the local tiers.
	TierRemote
)

// String returns "none", "memory", "disk" or "remote".
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	case TierRemote:
		return "remote"
	default:
		return "none"
	}
}

// DefaultMaxBytes is the disk budget when Options.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20 // 256 MiB

// DefaultMemBytes is the in-memory tier budget when Options.MemBytes
// is zero.
const DefaultMemBytes = 32 << 20 // 32 MiB

// Options tune a Store.
type Options struct {
	// MaxBytes bounds total disk usage (entry files, headers
	// included); the least recently used entries are evicted beyond
	// it. Zero means DefaultMaxBytes; negative disables the bound.
	MaxBytes int64
	// MemBytes bounds the in-memory first tier (payload bytes), which
	// is a memory-only store's only tier. Zero means DefaultMemBytes;
	// negative disables the memory tier, so every Get reads the disk
	// tier (and a memory-only store caches nothing).
	MemBytes int64
	// Remote, when non-nil, is the shared-origin third tier (usually a
	// *Remote over another instance's /v1/store routes): Gets that
	// miss both local tiers are fetched from it (single-flighted per
	// entry) and written through to disk and memory; local Puts are
	// written through to it. A failing remote degrades the store to
	// local-only — it never fails a Get or a local Put. The Store owns
	// the backend and closes it on Close. A memory-only store (Open
	// with an empty dir) cannot have one.
	Remote Backend
}

func (o Options) memBytes() int64 {
	if o.MemBytes == 0 {
		return DefaultMemBytes
	}
	return o.MemBytes
}

// Store is a tiered (memory over disk over optional remote)
// content-addressed artifact cache rooted at one directory, or a
// memory-only cache with no directory. Safe for concurrent use;
// readers are never blocked by eviction (an entry deleted mid-read
// degrades to a miss). Both local tiers live in one index under one
// mutex; the optional remote tier is any Backend (see Options.Remote),
// read through with per-entry single-flighting and written through on
// Put.
type Store struct {
	// dir is "" in a memory-only store.
	dir      string
	maxBytes int64
	memMax   int64
	remote   Backend

	mu     sync.Mutex
	closed bool
	// index holds every entry with a file or a resident payload.
	// diskOrder and memOrder are the two tiers' LRU lists over it
	// (front = most recently used; element values are *entry).
	index     map[string]*entry
	diskOrder *list.List
	memOrder  *list.List
	diskBytes int64
	memBytes  int64
	// gen issues a monotonic generation per install. An entry keeps
	// the generation of its current contents, so a disk reader can
	// tell whether the file it read is still current: a payload read
	// at an older generation is never promoted (it would serve stale
	// bytes), and a failed read never evicts a newer file.
	gen uint64
	// stages breaks disk occupancy down by pipeline stage, maintained
	// at install and removal.
	stages map[string]StageUsage

	memoryHits, diskHits, remoteHits, misses uint64
	puts, evictions, corruptEvicted          uint64
	originGets, originPuts                   uint64

	// rflight single-flights remote fetches per entry id, so a
	// stampede of identical misses costs the origin one request.
	rflight flight.Group[remoteFetch]
	// remoteWG tracks in-flight asynchronous write-throughs to the
	// remote origin (see Put); Flush and Close wait on it. remoteSem
	// bounds their concurrency: when a slow origin saturates the
	// slots, further write-throughs are dropped (and counted) instead
	// of accumulating goroutines and pinned entry buffers without
	// limit.
	remoteWG    sync.WaitGroup
	remoteSem   chan struct{}
	remoteDrops uint64
}

// maxRemoteWriteThroughs bounds concurrent asynchronous write-throughs
// per store: enough to ride out origin latency spikes under bursty
// cold traffic, small enough that a slow origin cannot pin more than
// this many framed entries in memory.
const maxRemoteWriteThroughs = 32

// entry is one index record: the entry's file (when diskEl is set)
// and its payload (when memEl is set, i.e. resident in the memory
// tier). An entry with neither is removed from the index.
type entry struct {
	id string
	// gen is the generation of the install that produced the current
	// contents.
	gen uint64

	diskEl *list.Element
	// size is the file size; stage is the pipeline stage parsed from
	// the entry's key text ("unknown" when the header could not be
	// read), kept so removal can maintain the per-stage counters
	// without re-reading the file.
	size  int64
	stage string

	memEl   *list.Element
	payload []byte
}

// remoteFetch is the shared outcome of one single-flighted remote Get.
type remoteFetch struct {
	payload []byte
	ok      bool
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Entries / BytesUsed describe the disk tier.
	Entries   int   `json:"entries"`
	BytesUsed int64 `json:"bytesUsed"`
	// MemEntries / MemBytesUsed describe the in-memory first tier.
	MemEntries   int   `json:"memEntries"`
	MemBytesUsed int64 `json:"memBytesUsed"`
	// MemoryHits / DiskHits / RemoteHits / Misses split Get outcomes
	// by the tier that served them.
	MemoryHits uint64 `json:"memoryHits"`
	DiskHits   uint64 `json:"diskHits"`
	RemoteHits uint64 `json:"remoteHits"`
	Misses     uint64 `json:"misses"`
	// Puts counts successful local writes; Evictions counts entries
	// removed by the size bound; CorruptEvicted counts entries dropped
	// because their checksum or framing failed on read (or the file
	// was present but unreadable).
	Puts           uint64 `json:"puts"`
	Evictions      uint64 `json:"evictions"`
	CorruptEvicted uint64 `json:"corruptEvicted"`
	// OriginGets / OriginPuts count remote-protocol requests this
	// store served as a shared origin (RemoteHandler).
	OriginGets uint64 `json:"originGets"`
	OriginPuts uint64 `json:"originPuts"`
	// RemoteDroppedWrites counts write-throughs shed because the
	// bounded async pool was saturated (a slow origin); local
	// durability is unaffected.
	RemoteDroppedWrites uint64 `json:"remoteDroppedWrites"`
	// Stages breaks disk occupancy down by pipeline stage (the Stage
	// component of the entry keys): how many entries, and how many
	// bytes, each artifact kind is using of the disk budget. Operators
	// tune -store-max-bytes against this.
	Stages map[string]StageUsage `json:"stages,omitempty"`
	// Remote carries the remote backend's own counters (fetches,
	// write-throughs, errors); absent when the store is local-only.
	Remote *BackendStats `json:"remote,omitempty"`
}

// StageUsage is one stage's share of disk occupancy.
type StageUsage struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Open opens (creating if needed) the store rooted at dir: it sweeps
// temp files left by a crash, rebuilds the disk index from the entry
// files present (least recently modified evicts first), and enforces
// Options.MaxBytes, deleting the evicted files. The memory tier starts
// empty; the remote tier, when configured, is taken as-is. An
// unreadable or uncreatable directory is an error; individual
// malformed or unreadable entry files are indexed and evicted on
// first access. An empty dir opens a memory-only store: its memory
// tier is its only tier, so Options.Remote must be nil (a remote hit
// is written through to disk).
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:       dir,
		maxBytes:  opts.MaxBytes,
		memMax:    opts.memBytes(),
		remote:    opts.Remote,
		index:     map[string]*entry{},
		diskOrder: list.New(),
		memOrder:  list.New(),
		stages:    map[string]StageUsage{},
		remoteSem: make(chan struct{}, maxRemoteWriteThroughs),
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if dir == "" {
		if opts.Remote != nil {
			return nil, errRemoteNeedsDisk
		}
		return s, nil
	}
	if err := prepareDir(dir); err != nil {
		return nil, err
	}
	files, err := scanEntries(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		e := &entry{id: f.id}
		s.index[f.id] = e
		s.setFileLocked(e, f.size, f.stage)
	}
	s.enforceDiskBoundLocked()
	return s, nil
}

// errRemoteNeedsDisk reports an Open with a remote tier but no
// directory.
var errRemoteNeedsDisk = errors.New("store: a remote tier needs a store directory")

// errClosed reports a Put on a store that has been closed.
var errClosed = errors.New("store: put on closed store")

// entryPath is the file path of id's entry.
func (s *Store) entryPath(id string) string { return entryPath(s.dir, id) }

// Get returns the payload stored under k and the tier that served it:
// memory, then disk, then (when configured) the remote origin. A
// remote hit is written through to the local tiers, so the fleet pays
// the origin round-trip once per entry per instance. A missing,
// deleted-mid-read, or corrupt entry is a miss (corrupt or unreadable
// disk entries are additionally evicted and their files deleted); a
// down or failing remote is a miss, never an error. The returned
// slice is shared with the memory tier and must not be modified.
func (s *Store) Get(k Key) ([]byte, Tier, bool) {
	id := k.id()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, TierNone, false
	}
	e := s.index[id]
	switch {
	case e != nil && e.memEl != nil:
		s.touchLocked(e)
		s.memoryHits++
		payload := e.payload
		s.mu.Unlock()
		return payload, TierMemory, true
	case e != nil && e.diskEl != nil:
		s.touchLocked(e)
		gen := e.gen
		s.mu.Unlock()
		if payload, ok := s.readDisk(k, id, gen); ok {
			s.promoteRead(id, payload, gen)
			return payload, TierDisk, true
		}
	default:
		s.mu.Unlock()
	}

	if s.remote != nil {
		if payload, ok := s.fetchRemote(k, id); ok {
			s.mu.Lock()
			s.remoteHits++
			s.mu.Unlock()
			return payload, TierRemote, true
		}
	}

	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, TierNone, false
}

// Holds reports whether the local index holds an entry under k, as a
// file or a resident payload. It reads no entry, counts no lookup and
// never asks the remote tier.
func (s *Store) Holds(k Key) bool {
	id := k.id()
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.index[id] != nil
}

// readDisk reads and verifies the file of id, which held generation
// gen when the caller looked it up. The read runs outside the lock:
// eviction may delete the file underneath it, which reads as a miss,
// not an error.
func (s *Store) readDisk(k Key, id string, gen uint64) ([]byte, bool) {
	raw, err := os.ReadFile(s.entryPath(id))
	var payload []byte
	if err == nil {
		payload, err = decodeEntry(raw, k)
	}
	if err != nil {
		s.evictFailedRead(id, gen, err)
		return nil, false
	}
	return payload, true
}

// promoteRead counts a disk hit and promotes its payload, read from
// generation gen, into the memory tier — only while the index still
// holds generation gen. An install that landed during the read owns
// the entry now, and the bytes read are stale.
func (s *Store) promoteRead(id string, payload []byte, gen uint64) {
	s.mu.Lock()
	s.diskHits++
	if e := s.index[id]; e != nil && e.gen == gen {
		s.promoteLocked(e, payload)
	}
	s.mu.Unlock()
}

// fetchRemote resolves one remote miss, single-flighted per entry id:
// the winner fetches from the origin and writes the entry through to
// the local tiers; waiters share its payload without re-fetching or
// re-writing. The Background context means waiters ride the fetch out
// (it is bounded by the remote backend's own timeout).
func (s *Store) fetchRemote(k Key, id string) ([]byte, bool) {
	f, _, _ := s.rflight.Do(context.Background(), id, func(context.Context) (remoteFetch, error) {
		payload, ok := s.remote.Get(k)
		if ok {
			// Write through so the next Get is local. A failed install
			// only skips the local copy; the fetched payload is still
			// served.
			s.install(id, encodeEntry(k, payload), payload, false)
		}
		return remoteFetch{payload: payload, ok: ok}, nil
	})
	return f.payload, f.ok
}

// Put stores data under k, replacing any existing entry, applying the
// size bounds, and writing through to the remote origin when one is
// configured. The remote leg runs asynchronously — local durability is
// complete when Put returns, and a slow or down origin never adds its
// round trip to the caller's latency (failures are absorbed and
// counted by the backend; Flush waits for pending legs). The store
// retains data for its memory tier; the caller must not modify it
// afterwards.
func (s *Store) Put(k Key, data []byte) error {
	// Frame (and checksum) the entry once; the disk install and the
	// remote write-through ship the identical bytes. A memory-only
	// store keeps the payload alone.
	id := k.id()
	var raw []byte
	if s.dir != "" {
		raw = encodeEntry(k, data)
	}
	writeThrough, err := s.install(id, raw, data, true)
	if err != nil || !writeThrough {
		return err
	}
	go func() {
		defer func() {
			<-s.remoteSem
			s.remoteWG.Done()
		}()
		// Write-through failures are deliberately dropped here: the
		// backend counts them (BackendStats.Errors) and cools down.
		s.remote.PutRaw(id, raw)
	}()
	return nil
}

// install makes raw, the framed entry of payload, the entry under id:
// Put, the remote fetch's write-through and the origin's PUT all come
// through here. The file is written to a temp file and fsynced outside
// the lock, then renamed into place, indexed at a fresh generation and
// its payload promoted in one critical section, so a concurrent
// reader's promotion or failed-read eviction can never clobber it. A
// memory-only store has no file and indexes the payload alone.
//
// A local Put also counts itself and reserves a remote write-through
// slot, reported by the result. The reservation shares the critical
// section with the closed check, so it can never race Close's Wait.
// It is non-blocking: a saturated origin sheds write-throughs (they
// are an optimization) rather than stalling Puts or accumulating
// goroutines.
func (s *Store) install(id string, raw, payload []byte, local bool) (writeThrough bool, err error) {
	var tmp string
	if s.dir != "" {
		if tmp, err = writeTemp(s.dir, id, raw); err != nil {
			return false, err
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if tmp != "" {
			os.Remove(tmp)
		}
		return false, errClosed
	}
	if tmp != "" {
		//eblocks:ignore lockheld the rename must be under the mutex so concurrent corrupt-entry eviction can never delete a freshly written replacement; the expensive write+sync already happened outside the lock
		if err := os.Rename(tmp, s.entryPath(id)); err != nil {
			s.mu.Unlock()
			os.Remove(tmp)
			return false, fmt.Errorf("store: put: %w", err)
		}
	}
	s.gen++
	e := s.index[id]
	if e == nil {
		e = &entry{id: id}
		s.index[id] = e
	}
	e.gen = s.gen
	if tmp != "" {
		s.setFileLocked(e, int64(len(raw)), stageOfEntryHeader(raw))
	}
	s.promoteLocked(e, payload)
	s.enforceDiskBoundLocked()
	if local {
		s.puts++
		if s.remote != nil {
			select {
			case s.remoteSem <- struct{}{}:
				writeThrough = true
				s.remoteWG.Add(1)
			default:
				s.remoteDrops++
			}
		}
	}
	s.mu.Unlock()
	return writeThrough, nil
}

// Flush blocks until every remote write-through issued so far has
// completed (successfully or not). Local writes are durable at Put
// time; Flush only matters to callers that need the origin to have
// seen them — tests, or an orderly handoff before shutdown.
func (s *Store) Flush() {
	s.remoteWG.Wait()
}

// touchLocked marks e most recently used in every tier holding it.
func (s *Store) touchLocked(e *entry) {
	if e.memEl != nil {
		s.memOrder.MoveToFront(e.memEl)
	}
	if e.diskEl != nil {
		s.diskOrder.MoveToFront(e.diskEl)
	}
}

// promoteLocked makes payload e's resident payload, evicting the least
// recently used payloads beyond the memory budget. A payload the tier
// cannot hold (the tier is disabled, or the payload alone exceeds its
// budget) is not resident, and neither is any older payload of e: it
// is superseded and must not keep answering memory hits.
func (s *Store) promoteLocked(e *entry, payload []byte) {
	if s.memMax < 0 || int64(len(payload)) > s.memMax {
		s.dropPayloadLocked(e)
		return
	}
	if e.memEl != nil {
		s.memBytes -= int64(len(e.payload))
		s.memOrder.MoveToFront(e.memEl)
	} else {
		e.memEl = s.memOrder.PushFront(e)
	}
	e.payload = payload
	s.memBytes += int64(len(payload))
	for s.memBytes > s.memMax {
		s.dropPayloadLocked(s.memOrder.Back().Value.(*entry))
	}
}

// dropPayloadLocked evicts e's payload from the memory tier, if
// resident.
func (s *Store) dropPayloadLocked(e *entry) {
	if e.memEl != nil {
		s.memOrder.Remove(e.memEl)
		s.memBytes -= int64(len(e.payload))
		e.memEl, e.payload = nil, nil
	}
	s.forgetIfEmptyLocked(e)
}

// setFileLocked records e's freshly installed (or, at Open, found)
// file as the most recently used one on disk.
func (s *Store) setFileLocked(e *entry, size int64, stage string) {
	if e.diskEl != nil {
		s.unaccountFileLocked(e)
		s.diskOrder.MoveToFront(e.diskEl)
	} else {
		e.diskEl = s.diskOrder.PushFront(e)
	}
	e.size, e.stage = size, stage
	s.diskBytes += size
	u := s.stages[stage]
	u.Entries++
	u.Bytes += size
	s.stages[stage] = u
}

// dropFileLocked removes e's file from the index (callers delete the
// file and maintain the outcome counters).
func (s *Store) dropFileLocked(e *entry) {
	if e.diskEl != nil {
		s.unaccountFileLocked(e)
		s.diskOrder.Remove(e.diskEl)
		e.diskEl = nil
	}
	s.forgetIfEmptyLocked(e)
}

// unaccountFileLocked subtracts e's file from the disk and per-stage
// occupancy.
func (s *Store) unaccountFileLocked(e *entry) {
	s.diskBytes -= e.size
	u := s.stages[e.stage]
	u.Entries--
	u.Bytes -= e.size
	s.stages[e.stage] = u
	if u.Entries <= 0 {
		delete(s.stages, e.stage)
	}
}

// forgetIfEmptyLocked removes e from the index once it has neither a
// file nor a resident payload.
func (s *Store) forgetIfEmptyLocked(e *entry) {
	if e.diskEl == nil && e.memEl == nil && s.index[e.id] == e {
		delete(s.index, e.id)
	}
}

// enforceDiskBoundLocked evicts least-recently-used files (deleting
// them) until disk usage is under the byte budget. The most recently
// used file is never evicted, even when it alone exceeds the budget.
// A resident payload outlives its evicted file.
func (s *Store) enforceDiskBoundLocked() {
	if s.maxBytes < 0 {
		return
	}
	for s.diskBytes > s.maxBytes && s.diskOrder.Len() > 1 {
		e := s.diskOrder.Back().Value.(*entry)
		s.dropFileLocked(e)
		s.evictions++
		os.Remove(s.entryPath(e.id))
	}
}

// evictFailedRead drops id's file after a failed read of generation
// gen — unless a concurrent install has already replaced the file, in
// which case the fresh entry is left alone.
func (s *Store) evictFailedRead(id string, gen uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.index[id]
	if e == nil || e.diskEl == nil || e.gen != gen {
		return
	}
	s.dropFileLocked(e)
	if !os.IsNotExist(err) {
		// Present but corrupt or unreadable: delete the file (under
		// the lock, so we cannot race a re-install's rename) to keep
		// disk usage within accounting.
		s.corruptEvicted++
		//eblocks:ignore lockheld deleting under the lock is the crash-safety design: it cannot race a re-install's rename, and a same-filesystem unlink is not blocking I/O in any meaningful sense
		os.Remove(s.entryPath(id))
	}
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Entries:             s.diskOrder.Len(),
		BytesUsed:           s.diskBytes,
		MemEntries:          s.memOrder.Len(),
		MemBytesUsed:        s.memBytes,
		MemoryHits:          s.memoryHits,
		DiskHits:            s.diskHits,
		RemoteHits:          s.remoteHits,
		Misses:              s.misses,
		Puts:                s.puts,
		Evictions:           s.evictions,
		CorruptEvicted:      s.corruptEvicted,
		OriginGets:          s.originGets,
		OriginPuts:          s.originPuts,
		RemoteDroppedWrites: s.remoteDrops,
	}
	if s.dir != "" {
		st.Stages = maps.Clone(s.stages)
	}
	s.mu.Unlock()
	if s.remote != nil {
		rs := s.remote.Stats()
		st.Remote = &rs
	}
	return st
}

// Len returns the number of entries in the disk tier (0 in a
// memory-only store).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskOrder.Len()
}

// Dir returns the store's root directory ("" for a memory-only
// store).
func (s *Store) Dir() string { return s.dir }

// Close marks the store closed and closes its remote tier; subsequent
// Gets miss and Puts fail. All locally written entries are already
// durable (entries are synced and renamed at Put time); Close only
// waits for in-flight remote write-throughs (each bounded by the
// remote backend's timeout) before closing the remote tier.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.remoteWG.Wait()
	if s.remote != nil {
		return s.remote.Close()
	}
	return nil
}
