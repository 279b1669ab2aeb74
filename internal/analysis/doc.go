// Package analysis is the repository's static-analysis suite: a set
// of custom analyzers that machine-check the invariants the codebase
// rests on — byte-determinism of pure pipeline stages, context
// propagation along blocking paths, lock discipline around I/O, wire
// form versioning of persisted store artifacts, Prometheus metric
// naming, and godoc coverage — so they are enforced by CI rather
// than by reviewer vigilance.
//
// The framework mirrors the golang.org/x/tools/go/analysis model
// (Analyzer, Pass, Diagnostic) on the standard library alone, because
// this module deliberately has no external dependencies: analyzers
// receive one type-checked package at a time and report position-
// anchored diagnostics. The driver, a standalone go-list loader,
// lives in internal/analysis/driver; the multichecker binary is
// cmd/eblocksvet.
//
// Two comment directives tune the suite in source:
//
//	//eblocks:ignore <analyzer> <reason>   suppress findings from one
//	    analyzer (or "all") on the same or the following line; the
//	    reason is mandatory and a malformed directive is itself a
//	    finding.
//	//eblocks:pure                          mark the enclosing file as
//	    a pure, byte-deterministic artifact producer, opting it into
//	    the determinism analyzer outside the hardcoded package list.
//	//eblocks:wire <stage> <hash>           bind a struct to a
//	    versioned store wire form; the wireversion analyzer recomputes
//	    the schema hash and fails when the shape changed without a
//	    version bump.
//
// See docs/ANALYSIS.md for the analyzer catalog and usage.
package analysis
