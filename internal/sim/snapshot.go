package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"container/heap"

	"repro/internal/graph"
	"repro/internal/netlist"
)

// SnapshotMagic is the first line of every serialized simulator
// snapshot; it doubles as the store stage name the service persists
// snapshots under.
const SnapshotMagic = "simstate.v1"

// snapEvent is one pending queue entry in wire form. Blocks are
// referenced by name, not NodeID: two structurally identical designs
// can number their nodes differently, and names are the stable
// identity a snapshot can carry across processes.
type snapEvent struct {
	Time  int64  `json:"time"`
	Prio  int    `json:"prio"`
	Seq   uint64 `json:"seq"`
	Kind  uint8  `json:"kind"`
	Block string `json:"block"`
	Pin   int    `json:"pin,omitempty"`
	Tag   int    `json:"tag,omitempty"`
	Value int64  `json:"value,omitempty"`
}

// snapInst is one block instance's mutable runtime state in wire form.
type snapInst struct {
	Block        string  `json:"block"`
	Inputs       []int64 `json:"inputs"`
	PrevIn       []int64 `json:"prevIn"`
	Outputs      []int64 `json:"outputs"`
	State        []int64 `json:"state,omitempty"`
	EvalAt       int64   `json:"evalAt"`
	PendingFired []int   `json:"pendingFired,omitempty"`
}

// snapshotPayload is the simstate.v1 JSON body: everything needed to
// rebuild a Simulator mid-run such that continuing produces the exact
// change stream the uninterrupted run would have produced.
//
//eblocks:wire simstate.v1 b7eb4351
type snapshotPayload struct {
	Version     int         `json:"version"`
	Fingerprint string      `json:"fingerprint"`
	Config      string      `json:"config"`
	Now         int64       `json:"now"`
	Processed   int         `json:"processed"`
	Emitted     int         `json:"emitted"`
	QueueNext   uint64      `json:"queueNext"`
	Events      []snapEvent `json:"events"`
	Insts       []snapInst  `json:"insts"`
}

// Snapshot serializes the simulator's full runtime state — simulation
// clock, cumulative event and trace budgets, the pending event queue
// (packets, timers, stimuli), and every block's latched pins and state
// variables — into the versioned, checksummed simstate.v1 wire form.
// Restore rebuilds a simulator from it that continues deterministically:
// the resumed run's change stream is byte-identical to the
// uninterrupted run's. Snapshots taken in interpreter and compiled mode
// are interchangeable (the two evaluators are semantically identical,
// and Config.Canonical excludes the choice).
func (s *Simulator) Snapshot() ([]byte, error) {
	if s.fingerprint == "" {
		s.fingerprint = netlist.Fingerprint(s.design)
	}
	p := snapshotPayload{
		Version:     1,
		Fingerprint: s.fingerprint,
		Config:      s.cfg.Canonical(),
		Now:         s.now,
		Processed:   s.processed,
		Emitted:     s.emitted,
		QueueNext:   s.queue.next,
		Events:      make([]snapEvent, 0, len(s.queue.items)),
		Insts:       make([]snapInst, 0, len(s.insts)),
	}
	for _, ev := range s.queue.items {
		p.Events = append(p.Events, snapEvent{
			Time:  ev.time,
			Prio:  ev.prio,
			Seq:   ev.seq,
			Kind:  uint8(ev.kind),
			Block: s.insts[ev.node].name,
			Pin:   ev.pin,
			Tag:   ev.tag,
			Value: ev.value,
		})
	}
	// Canonical order: the heap's internal layout is an implementation
	// detail; (time, prio, seq) is the semantic order and makes equal
	// states serialize to equal bytes.
	sort.Slice(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Prio != b.Prio {
			return a.Prio < b.Prio
		}
		return a.Seq < b.Seq
	})
	for _, id := range s.design.Graph().NodeIDs() {
		rt := s.insts[id]
		si := snapInst{
			Block:   rt.name,
			Inputs:  append([]int64{}, rt.inputs...),
			PrevIn:  append([]int64{}, rt.prevIn...),
			Outputs: append([]int64{}, rt.outputs...),
			EvalAt:  rt.evalAt,
		}
		if rt.machine != nil {
			si.State = rt.machine.States()
		}
		for tag := range rt.pendingFired {
			si.PendingFired = append(si.PendingFired, tag)
		}
		sort.Ints(si.PendingFired)
		p.Insts = append(p.Insts, si)
	}
	body, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	sum := sha256.Sum256(body)
	var buf bytes.Buffer
	buf.Grow(len(SnapshotMagic) + 1 + hex.EncodedLen(len(sum)) + 1 + len(body))
	buf.WriteString(SnapshotMagic)
	buf.WriteByte('\n')
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')
	buf.Write(body)
	return buf.Bytes(), nil
}

// decodeSnapshot verifies the simstate.v1 envelope — magic, checksum,
// version — and returns the payload. Any corruption (truncation, bit
// flips, a foreign format) fails closed with an error; a damaged
// snapshot must never restore partial state.
func decodeSnapshot(data []byte) (*snapshotPayload, error) {
	rest, ok := bytes.CutPrefix(data, []byte(SnapshotMagic+"\n"))
	if !ok {
		return nil, fmt.Errorf("sim: snapshot: not a %s payload", SnapshotMagic)
	}
	sumHex, body, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("sim: snapshot: truncated header")
	}
	want, err := hex.DecodeString(string(sumHex))
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("sim: snapshot: malformed checksum")
	}
	if got := sha256.Sum256(body); !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("sim: snapshot: checksum mismatch (corrupt payload)")
	}
	var p snapshotPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	if p.Version != 1 {
		return nil, fmt.Errorf("sim: snapshot: unsupported version %d", p.Version)
	}
	return &p, nil
}

// Restore rebuilds a simulator from a Snapshot taken of the same
// design (matched by fingerprint) under the same semantic
// configuration (matched by Config.Canonical, so the restoring side
// may freely switch between interpreter and compiled evaluation).
// The returned simulator continues exactly where the snapshot was
// taken: same clock, same pending events, same block state, same
// remaining event and trace budgets.
func Restore(d *netlist.Design, cfg Config, data []byte) (*Simulator, error) {
	p, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	fp := netlist.Fingerprint(d)
	if fp != p.Fingerprint {
		return nil, fmt.Errorf("sim: snapshot: design fingerprint %s does not match snapshot %s", fp, p.Fingerprint)
	}
	if c := cfg.Canonical(); c != p.Config {
		return nil, fmt.Errorf("sim: snapshot: config %q does not match snapshot %q", c, p.Config)
	}
	s, err := New(d, cfg)
	if err != nil {
		return nil, err
	}
	s.fingerprint = fp
	g := d.Graph()

	// Install per-block runtime state.
	byName := make(map[string]*instRT, len(s.insts))
	for _, rt := range s.insts {
		byName[rt.name] = rt
	}
	seen := make(map[string]bool, len(p.Insts))
	for _, si := range p.Insts {
		rt, ok := byName[si.Block]
		if !ok {
			return nil, fmt.Errorf("sim: snapshot: unknown block %q", si.Block)
		}
		if seen[si.Block] {
			return nil, fmt.Errorf("sim: snapshot: duplicate block %q", si.Block)
		}
		seen[si.Block] = true
		if len(si.Inputs) != len(rt.inputs) || len(si.PrevIn) != len(rt.prevIn) || len(si.Outputs) != len(rt.outputs) {
			return nil, fmt.Errorf("sim: snapshot: pin count mismatch on %q", si.Block)
		}
		copy(rt.inputs, si.Inputs)
		copy(rt.prevIn, si.PrevIn)
		copy(rt.outputs, si.Outputs)
		rt.evalAt = si.EvalAt
		rt.pendingFired = nil
		if len(si.PendingFired) > 0 {
			rt.pendingFired = make(map[int]bool, len(si.PendingFired))
			for _, tag := range si.PendingFired {
				rt.pendingFired[tag] = true
			}
		}
		if rt.machine != nil {
			if err := rt.machine.SetStates(si.State); err != nil {
				return nil, fmt.Errorf("sim: snapshot: block %q: %w", si.Block, err)
			}
		}
	}
	if len(seen) != len(s.insts) {
		return nil, fmt.Errorf("sim: snapshot: covers %d of %d blocks", len(seen), len(s.insts))
	}

	// Replace the power-up queue (settle may have scheduled timers)
	// with the snapshot's pending events wholesale, preserving their
	// original sequence numbers so FIFO tie-breaks replay identically.
	s.queue = eventQueue{next: p.QueueNext, items: make([]event, 0, len(p.Events))}
	for _, se := range p.Events {
		id := g.Lookup(se.Block)
		if id == graph.InvalidNode {
			return nil, fmt.Errorf("sim: snapshot: event for unknown block %q", se.Block)
		}
		if se.Kind > uint8(evEval) {
			return nil, fmt.Errorf("sim: snapshot: unknown event kind %d", se.Kind)
		}
		if se.Pin < 0 || (eventKind(se.Kind) == evPacket && se.Pin >= len(s.insts[id].inputs)) {
			return nil, fmt.Errorf("sim: snapshot: event pin %d out of range for %q", se.Pin, se.Block)
		}
		if se.Seq >= p.QueueNext {
			return nil, fmt.Errorf("sim: snapshot: event seq %d beyond queue counter %d", se.Seq, p.QueueNext)
		}
		s.queue.items = append(s.queue.items, event{
			time:  se.Time,
			prio:  se.Prio,
			seq:   se.Seq,
			kind:  eventKind(se.Kind),
			node:  int(id),
			pin:   se.Pin,
			tag:   se.Tag,
			value: se.Value,
		})
	}
	heap.Init(&s.queue)

	s.now = p.Now
	s.processed = p.Processed
	s.emitted = p.Emitted
	return s, nil
}
