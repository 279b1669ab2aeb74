// Package core implements the partitioning problem that is the primary
// contribution of Mannion et al., "System Synthesis for Networks of
// Programmable Blocks" (DATE 2005), Section 4: replace the greatest
// number of pre-defined compute blocks in an eBlock network with the
// fewest programmable blocks, where each programmable block has a fixed
// budget of physical inputs and outputs.
//
// Three algorithms are provided:
//
//   - Exhaustive search (Section 4.1): optimal, with the paper's
//     "empty programmable blocks are indistinguishable" symmetry pruning
//     plus a sound branch-and-bound over the design's fitting groups;
//     20-block random designs take milliseconds at the paper's 2x2
//     budget, 45-block ones can take longer than 10 s.
//   - The PareDown decomposition heuristic (Section 4.2, Figure 4): the
//     paper's contribution; O(n^2) fit checks.
//   - An aggregation heuristic (Section 4.2's strawman baseline):
//     greedy bottom-up clustering without look-ahead.
//
// All three return a Result whose partitions provably satisfy the
// constraints (see Validate), and are deterministic for a given input.
package core
