package store

import (
	"container/list"
	"context"
	"errors"
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
// degrades to a miss). The disk tier is a Disk backend; the optional
// remote tier is any Backend (see Options.Remote), read through with
// per-entry single-flighting and written through on Put.
type Store struct {
	// disk is nil in a memory-only store.
	disk   *Disk
	remote Backend
	opts   Options

	mu     sync.Mutex
	closed bool
	// memory tier: key id -> element of memOrder (values *memEntry).
	mem      map[string]*list.Element
	memOrder *list.List
	memBytes int64

	memoryHits, diskHits, remoteHits, misses uint64
	puts                                     uint64
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

// memEntry is one memory-tier payload. gen is the disk generation the
// payload was installed or read at; promotions carrying an older
// generation are rejected, so a slow reader can never clobber a
// fresher payload (see promoteMemLocked). A memory-only store installs
// everything at generation 0: its only promotions are Puts, which
// promote under the store lock, so the last Put wins.
type memEntry struct {
	id      string
	payload []byte
	gen     uint64
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

// Open opens (creating if needed) the store rooted at dir. The disk
// tier recovers exactly as OpenDisk describes; the memory tier starts
// empty; the remote tier, when configured, is taken as-is. An empty
// dir opens a memory-only store: its memory tier is its only tier, so
// Options.Remote must be nil (a remote hit is written through to disk).
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		remote:    opts.Remote,
		opts:      opts,
		mem:       map[string]*list.Element{},
		memOrder:  list.New(),
		remoteSem: make(chan struct{}, maxRemoteWriteThroughs),
	}
	if dir == "" {
		if opts.Remote != nil {
			return nil, errRemoteNeedsDisk
		}
		return s, nil
	}
	disk, err := OpenDisk(dir, opts.MaxBytes)
	if err != nil {
		return nil, err
	}
	s.disk = disk
	return s, nil
}

// errRemoteNeedsDisk reports an Open with a remote tier but no
// directory.
var errRemoteNeedsDisk = errors.New("store: a remote tier needs a store directory")

// entryPath is the disk tier's file path for id (test hook).
func (s *Store) entryPath(id string) string { return s.disk.entryPath(id) }

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
	if el, ok := s.mem[id]; ok {
		s.memOrder.MoveToFront(el)
		s.memoryHits++
		payload := el.Value.(*memEntry).payload
		s.mu.Unlock()
		if s.disk != nil {
			s.disk.touch(id)
		}
		return payload, TierMemory, true
	}
	s.mu.Unlock()

	if s.disk != nil {
		if payload, gen, ok := s.disk.get(k); ok {
			s.mu.Lock()
			s.diskHits++
			s.promoteMemLocked(id, payload, gen)
			s.mu.Unlock()
			return payload, TierDisk, true
		}
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

// fetchRemote resolves one remote miss, single-flighted per entry id:
// the winner fetches from the origin and writes the entry through to
// the local tiers; waiters share its payload without re-fetching or
// re-writing. The Background context means waiters ride the fetch out
// (it is bounded by the remote backend's own timeout).
func (s *Store) fetchRemote(k Key, id string) ([]byte, bool) {
	f, _, _ := s.rflight.Do(context.Background(), id, func(context.Context) (remoteFetch, error) {
		payload, ok := s.remote.Get(k)
		if ok {
			// Write through so the next Get is local. A disk failure
			// only skips the promotion; the fetched payload is still
			// served.
			if gen, err := s.disk.put(k, payload); err == nil {
				s.mu.Lock()
				s.promoteMemLocked(id, payload, gen)
				s.mu.Unlock()
			}
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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	s.mu.Unlock()

	// Frame (and checksum) the entry once; the disk install and the
	// remote write-through ship the identical bytes. A memory-only
	// store keeps the payload alone.
	id := k.id()
	var raw []byte
	var gen uint64
	if s.disk != nil {
		raw = encodeEntry(k, data)
		var err error
		if gen, err = s.disk.install(id, raw); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.puts++
	s.promoteMemLocked(id, data, gen)
	// The closed re-check and the WaitGroup Add share the critical
	// section with Close's closed=true, so an Add can never race
	// Close's Wait (a Put that loses the race skips the remote leg;
	// its local write is already durable). The semaphore acquisition
	// is non-blocking: a saturated origin sheds write-throughs (they
	// are an optimization) rather than stalling Puts or accumulating
	// goroutines.
	spawn := false
	if s.remote != nil && !s.closed {
		select {
		case s.remoteSem <- struct{}{}:
			spawn = true
			s.remoteWG.Add(1)
		default:
			s.remoteDrops++
		}
	}
	s.mu.Unlock()

	if spawn {
		go func() {
			defer func() {
				<-s.remoteSem
				s.remoteWG.Done()
			}()
			// Write-through failures are deliberately dropped here:
			// the backend counts them (BackendStats.Errors) and cools
			// down. Backends that accept pre-framed entries (Remote)
			// are handed the bytes already built for the disk install.
			if rp, ok := s.remote.(rawPutter); ok {
				rp.PutRaw(id, raw)
			} else {
				s.remote.Put(k, data)
			}
		}()
	}
	return nil
}

// Flush blocks until every remote write-through issued so far has
// completed (successfully or not). Local writes are durable at Put
// time; Flush only matters to callers that need the origin to have
// seen them — tests, or an orderly handoff before shutdown.
func (s *Store) Flush() {
	s.remoteWG.Wait()
}

// errClosed reports a Put on a store that has been closed.
var errClosed = errors.New("store: put on closed store")

// promoteMemLocked installs payload in the memory tier (unless the
// tier is disabled, the payload alone exceeds its budget, or a fresher
// generation is already resident).
func (s *Store) promoteMemLocked(id string, payload []byte, gen uint64) {
	budget := s.opts.memBytes()
	if budget < 0 || int64(len(payload)) > budget {
		// The new payload cannot live in the tier — but a resident
		// older version is now superseded and must not keep serving
		// stale bytes (found by TestMemTierAccountingProperty: a Put
		// whose payload outgrew the budget left the previous payload
		// answering memory hits).
		if el, ok := s.mem[id]; ok && gen >= el.Value.(*memEntry).gen {
			e := el.Value.(*memEntry)
			s.memOrder.Remove(el)
			delete(s.mem, id)
			s.memBytes -= int64(len(e.payload))
		}
		return
	}
	if el, ok := s.mem[id]; ok {
		e := el.Value.(*memEntry)
		if gen < e.gen {
			// A concurrent install already promoted fresher bytes; a
			// reader that began before it must not overwrite them.
			return
		}
		s.memBytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		e.gen = gen
		s.memOrder.MoveToFront(el)
	} else {
		s.mem[id] = s.memOrder.PushFront(&memEntry{id: id, payload: payload, gen: gen})
		s.memBytes += int64(len(payload))
	}
	for s.memBytes > budget {
		oldest := s.memOrder.Back()
		e := oldest.Value.(*memEntry)
		s.memOrder.Remove(oldest)
		delete(s.mem, e.id)
		s.memBytes -= int64(len(e.payload))
	}
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		MemEntries:          s.memOrder.Len(),
		MemBytesUsed:        s.memBytes,
		MemoryHits:          s.memoryHits,
		DiskHits:            s.diskHits,
		RemoteHits:          s.remoteHits,
		Misses:              s.misses,
		Puts:                s.puts,
		OriginGets:          s.originGets,
		OriginPuts:          s.originPuts,
		RemoteDroppedWrites: s.remoteDrops,
	}
	s.mu.Unlock()
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Entries = ds.Entries
		st.BytesUsed = ds.BytesUsed
		st.Evictions, st.CorruptEvicted = s.disk.counters()
		st.Stages = s.disk.StageStats()
	}
	if s.remote != nil {
		rs := s.remote.Stats()
		st.Remote = &rs
	}
	return st
}

// Len returns the number of entries in the disk tier (0 in a
// memory-only store).
func (s *Store) Len() int {
	if s.disk == nil {
		return 0
	}
	return s.disk.Len()
}

// Dir returns the store's root directory ("" for a memory-only
// store).
func (s *Store) Dir() string {
	if s.disk == nil {
		return ""
	}
	return s.disk.Dir()
}

// Close marks the store closed and closes its backends; subsequent
// Gets miss and Puts fail. All locally written entries are already
// durable (entries are synced and renamed at Put time); Close only
// waits for in-flight remote write-throughs (each bounded by the
// remote backend's timeout) before closing the backends.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.remoteWG.Wait()
	var err error
	if s.disk != nil {
		err = s.disk.Close()
	}
	if s.remote != nil {
		if rerr := s.remote.Close(); err == nil {
			err = rerr
		}
	}
	return err
}
