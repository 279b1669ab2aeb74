// Package block defines the eBlock catalog: the four classes of blocks
// described in Section 2 of the paper (sensor, output, compute, and
// communication blocks, plus the programmable compute block that the
// synthesis flow introduces), each with its port interface and — for
// compute and communication blocks — its behavior program.
//
// Pre-defined compute blocks come in two families, matching the paper:
// combinational functions (AND, OR, NOT, and two- or three-input truth
// tables) and basic sequential functions (toggle, trip, pulse generate,
// delay, prolong). Behaviors are written in the language of
// internal/behavior and are run by the simulator and merged by the
// code generator.
package block
