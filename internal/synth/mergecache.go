package synth

import (
	"encoding/json"
	"fmt"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/codegen"
	"repro/internal/graph"
	"repro/internal/memo"
	"repro/internal/netlist"
)

// MergeStats reports how much of a merge was served from the stage
// cache.
type MergeStats struct {
	// Adopted counts partitions whose merge artifact was decoded from
	// the cache; Recomputed counts partitions merged in-process (and
	// written back).
	Adopted    int `json:"adopted"`
	Recomputed int `json:"recomputed"`
}

// MergeCached validates the partitioning against the design and
// merges each partition's behavior trees into one program, with
// per-partition memoization. A paper-mode result whose contracted
// block graph is cyclic fails here with ErrUnrealizable. Each
// partition's merge artifact is looked up under its subgraph
// fingerprint (netlist.SubHasher, stage StagePartitionMerge) and only
// the partitions that miss are merged — the unit of reuse for
// incremental synthesis, where a one-block edit leaves every other
// partition's fingerprint (and therefore its artifact) untouched.
// Adopted artifacts are byte-identical to freshly merged ones: the
// fingerprint covers everything the merged program depends on, and
// the program text round-trips Format/Parse exactly.
//
// A nil cache merges every partition in-process. A miss, an
// undecodable entry, or a subgraph that cannot be fingerprinted all
// fall back to merging that partition in-process.
func (p *Partitioned) MergeCached(cache StageCache) (*Merged, MergeStats, error) {
	if err := p.validateForMerge(); err != nil {
		return nil, MergeStats{}, err
	}
	c := p.Constraints
	m := &Merged{
		Partitioned: p,
		Merges:      make([]*codegen.Merged, len(p.Result.Partitions)),
		ProgType:    block.ProgrammableType(c.MaxInputs, c.MaxOutputs),
		adopted:     make([]bool, len(p.Result.Partitions)),
	}
	var stats MergeStats

	var h *netlist.SubHasher
	if cache != nil {
		// Levels are computed once here and reused per partition; a
		// cyclic graph cannot reach this point (validateForMerge), so
		// a hasher error just disables adoption.
		h, _ = netlist.NewSubHasher(p.Design)
	}
	for pi, part := range p.Result.Partitions {
		var key StageKey
		haveKey := false
		if h != nil {
			if fp, err := h.Fingerprint(part); err == nil {
				key = p.SubKey(fp)
				haveKey = true
			}
		}
		if haveKey {
			if raw, ok := cache.GetStage(StagePartitionMerge, key); ok {
				if mg, err := decodeMerged(raw, h, part, c.MaxInputs, c.MaxOutputs); err == nil {
					m.Merges[pi], m.adopted[pi] = mg, true
					stats.Adopted++
					continue
				}
			}
		}
		mg, err := codegen.MergePartition(p.Design, part)
		if err != nil {
			return nil, stats, err
		}
		if err := mg.PadPorts(c.MaxInputs, c.MaxOutputs); err != nil {
			return nil, stats, err
		}
		m.Merges[pi] = mg
		stats.Recomputed++
		if haveKey {
			if raw, err := encodeMerged(mg); err == nil {
				cache.PutStage(StagePartitionMerge, key, raw)
			}
		}
	}
	return m, stats, nil
}

// mergedWire is the portable encoding of one partition's merge
// artifact. Only the merged program and the used port counts are
// stored: the port maps and member list are recomputed against the
// adopting design from the canonical merge order — the subgraph
// fingerprint pins that order, so the recomputation reproduces
// exactly the maps the artifact was built with. Keeping names and
// node IDs out of the payload is what lets isomorphic subgraphs of
// different designs share one artifact.
//
//eblocks:wire partition.v1 be788cba
type mergedWire struct {
	Version int    `json:"v"`
	Program string `json:"program"`
	UsedIn  int    `json:"usedIn"`
	UsedOut int    `json:"usedOut"`
}

const mergedWireVersion = 1

// encodeMerged renders a padded merge artifact in the portable wire
// form.
func encodeMerged(mg *codegen.Merged) ([]byte, error) {
	return json.Marshal(mergedWire{
		Version: mergedWireVersion,
		Program: behavior.Format(mg.Program),
		UsedIn:  mg.NumIn(),
		UsedOut: mg.NumOut(),
	})
}

// artifactMemo caches the expensive half of decodeMerged — JSON
// unmarshal plus program Parse+Check — keyed by the raw artifact
// bytes, so the adopt path pays that cost once per distinct artifact
// instead of once per adoption. In an interactive edit session the
// same artifacts are adopted on every request, and re-parsing made
// adoption slower than recomputing the merge. Sharing one
// *behavior.Program across adoptions is safe because the pipeline
// treats programs as immutable (mutation boundaries Clone). Budgeted
// by the artifact bytes its keys hold.
var artifactMemo = memo.New[string, *decodedArtifact](artifactMemoBytes, artifactBytes)

const artifactMemoBytes = 4 << 20

type decodedArtifact struct {
	prog    *behavior.Program
	usedIn  int
	usedOut int
}

func memoizedDecode(raw []byte) (*decodedArtifact, error) {
	k := string(raw)
	if a, ok := artifactMemo.Get(k); ok {
		return a, nil
	}
	var w mergedWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, err
	}
	if w.Version != mergedWireVersion {
		return nil, fmt.Errorf("synth: unknown merge encoding version %d", w.Version)
	}
	prog, err := behavior.Parse(w.Program)
	if err != nil {
		return nil, fmt.Errorf("synth: cached merge program: %w", err)
	}
	if err := behavior.Check(prog); err != nil {
		return nil, fmt.Errorf("synth: cached merge program: %w", err)
	}
	a := &decodedArtifact{prog: prog, usedIn: w.UsedIn, usedOut: w.UsedOut}
	artifactMemo.Put(k, a)
	return a, nil
}

// decodeMerged rebuilds a partition's merge artifact against the
// design behind h: the program is re-parsed from its canonical text
// and the member list and port maps are recomputed in canonical merge
// order. The declared port counts cross-check the recomputed maps and
// the padded program interface — any mismatch fails the decode (the
// artifact belongs to a different subgraph), and the caller falls
// back to merging.
func decodeMerged(raw []byte, h *netlist.SubHasher, part graph.NodeSet, nin, nout int) (*codegen.Merged, error) {
	a, err := memoizedDecode(raw)
	if err != nil {
		return nil, err
	}
	mg := &codegen.Merged{
		Program:   a.prog,
		InputMap:  h.ExternalInputs(part),
		OutputMap: h.ExportedOutputs(part),
		Members:   h.MergeOrder(part),
	}
	if mg.NumIn() != a.usedIn || mg.NumOut() != a.usedOut {
		return nil, fmt.Errorf("synth: cached merge artifact uses %dx%d ports, subgraph has %dx%d",
			a.usedIn, a.usedOut, mg.NumIn(), mg.NumOut())
	}
	if len(a.prog.Inputs) != nin || len(a.prog.Outputs) != nout {
		return nil, fmt.Errorf("synth: cached merge program is padded to %dx%d, constraints say %dx%d",
			len(a.prog.Inputs), len(a.prog.Outputs), nin, nout)
	}
	return mg, nil
}
