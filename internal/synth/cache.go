package synth

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netlist"
)

// StageKey is the content address of one synthesis run: the design
// fingerprint plus every knob that can change the outcome. Per-run
// tuning knobs (worker counts, search bounds) are deliberately
// excluded — every registered algorithm is deterministic across them,
// so they change how fast an artifact is produced, never which one.
type StageKey struct {
	// Fingerprint is the canonical design content hash
	// (netlist.Fingerprint), independent of block insertion order.
	Fingerprint string
	// Constraints is the canonical rendering of the effective
	// constraints ("2x2|convex=true").
	Constraints string
	// Algorithm is the partitioner registry name.
	Algorithm string
	// Aux carries stage-specific key components beyond the capture
	// triple. The Verified stage uses it for the stimulus-schedule
	// hash and the simulation semantics (VerifyStageKey); it is empty
	// for every stage keyed by the capture alone, so pre-existing keys
	// render unchanged.
	Aux string
}

// String renders the canonical cache-key text.
func (k StageKey) String() string {
	s := k.Fingerprint + "|" + k.Constraints + "|" + k.Algorithm
	if k.Aux != "" {
		s += "|" + k.Aux
	}
	return s
}

// constraintsText renders the canonical Constraints component of a
// StageKey ("2x2|convex=true").
func constraintsText(c core.Constraints) string {
	return fmt.Sprintf("%dx%d|convex=%t", c.MaxInputs, c.MaxOutputs, c.RequireConvex)
}

// StageKey derives the capture artifact's content address. The
// design fingerprint — a canonical re-serialization and SHA-256 of
// the whole design — is computed once per capture and memoized, so
// the service layer, the stage cache, and the response summary can
// all ask for it without repeating O(design) hashing on the hot path.
func (ca *Captured) StageKey() StageKey {
	ca.keyOnce.Do(func() {
		ca.key = StageKey{
			Fingerprint: netlist.Fingerprint(ca.Design),
			Constraints: constraintsText(ca.Constraints),
			Algorithm:   ca.Algorithm,
		}
	})
	return ca.key
}

// StructKey derives the partitioned stage's content address: like
// StageKey, but with the structure-only fingerprint
// (netlist.StructuralFingerprint) in the Fingerprint slot. Every
// registered algorithm partitions on graph structure alone, so keying
// the partitioned artifact this way lets designs that differ only in
// parameters or programs — the common case for incremental edits —
// share one cached partitioning. Memoized like StageKey.
func (ca *Captured) StructKey() StageKey {
	ca.structOnce.Do(func() {
		ca.structKey = StageKey{
			Fingerprint: netlist.StructuralFingerprint(ca.Design),
			Constraints: constraintsText(ca.Constraints),
			Algorithm:   ca.Algorithm,
		}
	})
	return ca.structKey
}

// SubKey derives the content address of one partition's merge artifact
// within this capture: the subgraph fingerprint plus the constraints
// and algorithm (constraints determine port padding; the algorithm is
// kept so artifacts remain attributable, though equal subgraphs merge
// equally under any algorithm).
func (ca *Captured) SubKey(subFingerprint string) StageKey {
	return StageKey{
		Fingerprint: subFingerprint,
		Constraints: constraintsText(ca.Constraints),
		Algorithm:   ca.Algorithm,
	}
}

// StagePartitioned names the Partitioned artifact in a StageCache;
// stage caches and the artifact store use it as the Stage component of
// their keys. v2 rekeyed the stage from the full design fingerprint to
// the structural fingerprint (StructKey); v3 dropped the run-dependent
// nodesVisited statistic, so the artifact is a pure function of its
// key. Entries written under an older scheme miss cleanly instead of
// being consulted with the wrong semantics.
const StagePartitioned = "partitioned.v3"

// StagePartitionMerge names per-partition merge artifacts: the merged
// program of one partition, keyed by the subgraph fingerprint
// (Captured.SubKey). This is the unit of reuse for incremental
// synthesis — an edit recomputes only the partitions whose subgraph
// fingerprint changed and adopts the rest from the store.
const StagePartitionMerge = "partition.v1"

// StageCache is the hook through which the pipeline memoizes stage
// artifacts. Implementations must be safe for concurrent use; the
// pipeline treats both methods as best-effort (a cache that always
// misses and drops every Put is valid).
type StageCache interface {
	// GetStage returns the encoded artifact stored for (stage, key).
	GetStage(stage string, key StageKey) ([]byte, bool)
	// PutStage stores an encoded artifact under (stage, key).
	PutStage(stage string, key StageKey, data []byte)
}

// PartitionCached is Partition with stage-level memoization: on a
// cache hit the partitioning result is decoded and adopted without
// running the algorithm, so callers that sweep emission-side options
// — or re-synthesize a design partitioned in an earlier process —
// reuse the expensive partition stage. The cache is keyed on the
// structural fingerprint (StructKey): designs differing only in
// parameters or programs share one entry. A nil cache, a miss, or an
// undecodable entry all fall back to computing; the returned bool
// reports whether the artifact came from the cache.
func (ca *Captured) PartitionCached(ctx context.Context, cache StageCache) (*Partitioned, bool, error) {
	if cache == nil {
		pt, err := ca.Partition(ctx)
		return pt, false, err
	}
	key := ca.StructKey()
	if raw, ok := cache.GetStage(StagePartitioned, key); ok {
		if res, err := decodeResult(raw, ca.Design.Graph()); err == nil {
			return ca.Adopt(res), true, nil
		}
		// Undecodable (e.g. written against a different design that
		// collided, or an older encoding): recompute below.
	}
	pt, err := ca.Partition(ctx)
	if err != nil {
		return nil, false, err
	}
	if raw, err := encodeResult(pt.Result, ca.Design.Graph()); err == nil {
		cache.PutStage(StagePartitioned, key, raw)
	}
	return pt, false, nil
}

// resultWire is the portable encoding of a core.Result. Nodes are
// identified by block name, not NodeID: the fingerprint two designs
// share is insertion-order independent, so their NodeIDs may differ
// while their names cannot. Result.NodesVisited is not carried: the
// parallel exhaustive search's count varies run to run, and a stage
// artifact must depend on its key alone.
//
//eblocks:wire partitioned.v3 751c56a6
type resultWire struct {
	Version    int        `json:"v"`
	Algorithm  string     `json:"algorithm"`
	Partitions [][]string `json:"partitions"`
	Uncovered  []string   `json:"uncovered"`
	FitChecks  int        `json:"fitChecks"`
}

const resultWireVersion = 1

// encodeResult renders a partitioning result in the portable wire
// form.
func encodeResult(res *core.Result, g *graph.Graph) ([]byte, error) {
	w := resultWire{
		Version:    resultWireVersion,
		Algorithm:  res.Algorithm,
		Partitions: make([][]string, len(res.Partitions)),
		Uncovered:  make([]string, 0, len(res.Uncovered)),
		FitChecks:  res.FitChecks,
	}
	for i, p := range res.Partitions {
		ids := p.Sorted()
		names := make([]string, len(ids))
		for j, id := range ids {
			names[j] = g.Name(id)
		}
		w.Partitions[i] = names
	}
	for _, id := range res.Uncovered {
		w.Uncovered = append(w.Uncovered, g.Name(id))
	}
	return json.Marshal(w)
}

// resultMemo caches the design-independent half of decodeResult —
// JSON unmarshal and version check — keyed by the raw artifact bytes.
// Incremental synthesis adopts the same partitioned artifact on every
// request of an edit session, and re-parsing it dominated the cached
// partition stage. The name-to-NodeID resolution below stays per-call:
// it is the part that depends on the adopting design. Reset past
// resultMemoMax entries, like the other artifact memos.
var resultMemo = struct {
	sync.RWMutex
	m map[string]*resultWire
}{m: map[string]*resultWire{}}

const resultMemoMax = 4096

func memoizedResultWire(raw []byte) (*resultWire, error) {
	resultMemo.RLock()
	w, ok := resultMemo.m[string(raw)] // no alloc: map lookup by []byte conversion
	resultMemo.RUnlock()
	if ok {
		return w, nil
	}
	w = new(resultWire)
	if err := json.Unmarshal(raw, w); err != nil {
		return nil, err
	}
	if w.Version != resultWireVersion {
		return nil, fmt.Errorf("synth: unknown result encoding version %d", w.Version)
	}
	resultMemo.Lock()
	if len(resultMemo.m) >= resultMemoMax {
		resultMemo.m = map[string]*resultWire{}
	}
	resultMemo.m[string(raw)] = w
	resultMemo.Unlock()
	return w, nil
}

// decodeResult rebuilds a partitioning result against g, resolving
// block names back to node IDs. Any unknown name fails the decode
// (the artifact belongs to a different design).
func decodeResult(raw []byte, g *graph.Graph) (*core.Result, error) {
	w, err := memoizedResultWire(raw)
	if err != nil {
		return nil, err
	}
	lookup := func(name string) (graph.NodeID, error) {
		id := g.Lookup(name)
		if !g.Valid(id) {
			return 0, fmt.Errorf("synth: cached result names unknown block %q", name)
		}
		return id, nil
	}
	res := &core.Result{
		Algorithm:  w.Algorithm,
		Partitions: make([]graph.NodeSet, len(w.Partitions)),
		FitChecks:  w.FitChecks,
	}
	for i, names := range w.Partitions {
		set := graph.NewNodeSet()
		for _, name := range names {
			id, err := lookup(name)
			if err != nil {
				return nil, err
			}
			set.Add(id)
		}
		res.Partitions[i] = set
	}
	for _, name := range w.Uncovered {
		id, err := lookup(name)
		if err != nil {
			return nil, err
		}
		res.Uncovered = append(res.Uncovered, id)
	}
	return res, nil
}
