// Package bench is the experiment harness: one runner per experiment of
// DESIGN.md's index (E1-E9), each regenerating the table that corresponds to
// a paper claim — lower-bound witnesses, time-space products, step
// complexities, space footprints, domain growth, and application-level
// corruption.  cmd/abalab prints them all; bench_test.go at the repository
// root exposes each as a testing.B benchmark; EXPERIMENTS.md records
// paper-vs-measured.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title describes the experiment and names the paper artifact.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data.
	Rows [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	underline := make([]string, len(t.Header))
	for i, h := range t.Header {
		underline[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(underline, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FprintAll renders a sequence of tables.
func FprintAll(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// Machine identifies the host a set of tables was recorded on — the context
// every ns/op figure silently assumes.  WriteJSON stamps it on every JSON
// envelope and abalab -serve prints it, so a figure read on another machine
// or toolchain says so.
type Machine struct {
	// GoMaxProcs and NumCPU are the scheduler width and the host's logical
	// CPU count at recording time.
	GoMaxProcs, NumCPU int
	// GoVersion is the recording toolchain (runtime.Version()).
	GoVersion string
	// Commit is the VCS revision baked into the binary, or "unknown" for
	// uncommitted / non-VCS builds.
	Commit string
}

// CurrentMachine samples the recording host.
func CurrentMachine() Machine {
	m := Machine{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// String renders the one-line header form.
func (m Machine) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s commit=%s", m.GoMaxProcs, m.NumCPU, m.GoVersion, m.Commit)
}

// Snapshot is the JSON envelope abalab -json emits: the tables plus the
// machine header they were recorded on.
type Snapshot struct {
	Machine Machine
	Tables  []*Table
}

// WriteJSON renders tables as an indented JSON envelope — the machine-
// readable form behind abalab -json — with the recording host's Machine
// header stamped on top.
func WriteJSON(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Snapshot{Machine: CurrentMachine(), Tables: tables})
}
