// Package driver loads type-checked packages for the analysis suite
// without depending on golang.org/x/tools: a standalone loader shells
// out to `go list -deps -export -json` and resolves imports through
// the compiler's export data (the same files cmd/go feeds to vet
// tools).
package driver
