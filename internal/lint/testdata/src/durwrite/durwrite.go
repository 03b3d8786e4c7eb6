// Package durwrite seeds dur-ignored-write violations. It is loaded under
// an import path containing "internal/runsvc", so the durability rule
// applies.
package durwrite

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strings"
)

// Journal drops errors three ways: a bare call, a defer, and a blank
// assignment. All three are flagged.
func Journal(f *os.File, v any) {
	defer f.Close() // want dur-ignored-write
	enc := json.NewEncoder(f)
	enc.Encode(v) // want dur-ignored-write
	_ = f.Sync()  // want dur-ignored-write
}

// Checked is the legal shape: every error is propagated.
func Checked(f *os.File, v any) error {
	if err := json.NewEncoder(f).Encode(v); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// Buffered drops a bufio write and its flush; both are flagged.
func Buffered(w io.Writer) {
	bw := bufio.NewWriter(w)
	bw.WriteString("x") // want dur-ignored-write
	bw.Flush()          // want dur-ignored-write
}

// Rotate drops the errors that install a snapshot generation and trim a
// log; both are flagged — a lost rename keeps replay on a stale
// generation with no visible failure.
func Rotate(f *os.File) {
	os.Rename(".tmp-snap.g000001", "snap.g000001") // want dur-ignored-write
	f.Truncate(0)                                  // want dur-ignored-write
}

// RotateChecked is the legal shape for the same operations.
func RotateChecked(f *os.File) error {
	if err := os.Rename(".tmp-snap.g000001", "snap.g000001"); err != nil {
		return err
	}
	return f.Truncate(0)
}

// Builder writes to a strings.Builder, which cannot fail; exempt.
func Builder() string {
	var b strings.Builder
	b.WriteString("x")
	return b.String()
}
