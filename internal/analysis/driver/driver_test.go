package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// scratchBad is a throwaway module carrying one deliberate violation
// per analyzer; the driver tests assert the whole suite fires on it.
const scratchBad = `// Package scratch hosts deliberately injected violations, one per
// analyzer in the suite.
//
//eblocks:pure
package scratch

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

var mu sync.Mutex

// Wire carries a stale schema hash.
//
//eblocks:wire scratch.v1 00000000
type Wire struct {
	V int ` + "`json:\"v\"`" + `
}

func Clock() int64 {
	return time.Now().Unix()
}

func work(ctx context.Context) error { return ctx.Err() }

// Drop mints a fresh context despite having one.
func Drop(ctx context.Context) error {
	_ = ctx.Err()
	return work(context.Background())
}

// Remove does I/O inside the critical section.
func Remove(path string) {
	mu.Lock()
	defer mu.Unlock()
	os.Remove(path)
}

// Metric emits a malformed series name.
func Metric(w *strings.Builder) {
	fmt.Fprintf(w, "%s 1\n", "eblocksd_Bad_total")
}
`

// scratchClean is a violation-free module: the suite must stay silent.
const scratchClean = `// Package clean is violation-free.
package clean

// Answer is a documented constant.
const Answer = 42
`

// writeModule materializes a single-package module in a temp dir.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"go.mod":  "module scratch\n\ngo 1.22\n",
		"main.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunFindsInjectedViolations checks that a module with one
// deliberate violation per analyzer produces at least one finding
// from each of the six.
func TestRunFindsInjectedViolations(t *testing.T) {
	dir := writeModule(t, scratchBad)
	diags, err := driver.Run(driver.Options{Dir: dir}, analysis.All())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	fired := map[string]bool{}
	for _, d := range diags {
		fired[d.Analyzer] = true
	}
	for _, a := range analysis.All() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s produced no finding on the injected-violation module; got:\n%s", a.Name, renderDiags(diags))
		}
	}
}

// TestRunCleanModule checks the suite stays silent on clean code.
func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, scratchClean)
	diags, err := driver.Run(driver.Options{Dir: dir}, analysis.All())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("clean module produced findings:\n%s", renderDiags(diags))
	}
}

// TestLoadBadPattern covers the loader's go list error path.
func TestLoadBadPattern(t *testing.T) {
	dir := writeModule(t, scratchClean)
	if _, err := driver.Load(driver.Options{Dir: dir, Patterns: []string{"./no/such/dir"}}); err == nil {
		t.Fatal("Load accepted a nonexistent package pattern")
	}
	if _, err := driver.Run(driver.Options{Dir: dir, Patterns: []string{"./no/such/dir"}}, analysis.All()); err == nil {
		t.Fatal("Run accepted a nonexistent package pattern")
	}
}

// renderDiags formats findings for failure messages.
func renderDiags(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
