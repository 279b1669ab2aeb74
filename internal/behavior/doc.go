// Package behavior implements the small imperative language in which
// every eBlock's behavior is written. The paper (Section 3.3) describes
// block behaviors "defined in a Java-like language that is automatically
// transformed to a syntax tree"; the code generator then merges the
// syntax trees of all blocks in a partition into one program. This
// package provides the language: lexer, parser, abstract syntax tree,
// static checks, the bytecode compiler and VM (Compile, Machine.Step)
// the simulator runs, the tree-walking interpreter (Eval,
// Machine.Interpret) that is the VM's reference over the same machine
// slots, and the AST rewriting utilities (identifier substitution,
// variable renaming, timer re-tagging) that the code generator relies
// on.
//
// A behavior program declares its interface and a run body:
//
//	input a, b;
//	output y;
//	state v = 0;
//	param WIDTH = 1000;
//	run {
//	    if (rising(a)) { v = !v; }
//	    y = v && b;
//	}
//
// All values are 64-bit integers; boolean context treats nonzero as
// true, and boolean operators yield 0 or 1. The builtins rising(x),
// falling(x) and changed(x) compare an input against its value at the
// block's previous evaluation; schedule(d) requests a re-evaluation
// after d milliseconds; the identifier `timer` is 1 when the current
// evaluation was caused by such a timer; now() is the current simulation
// time in milliseconds.
package behavior
