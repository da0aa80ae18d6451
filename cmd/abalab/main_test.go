package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"abadetect/internal/bench"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// unmarshalTables decodes the Tables array out of the machine-header
// envelope every -json table output now carries (bench.WriteJSON).
func unmarshalTables(t *testing.T, data []byte, into any) {
	t.Helper()
	var snap struct{ Tables json.RawMessage }
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-json output is not a snapshot envelope: %v", err)
	}
	if snap.Tables == nil {
		t.Fatalf("-json envelope has no Tables: %s", data)
	}
	if err := json.Unmarshal(snap.Tables, into); err != nil {
		t.Fatalf("snapshot Tables do not decode: %v", err)
	}
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing lacks experiment %s", id)
		}
	}
	if !strings.Contains(out, "reclamation schemes") {
		t.Error("listing lacks the reclamation-scheme section")
	}
	if !strings.Contains(out, "load profiles") {
		t.Error("listing lacks the load-profile section")
	}
	for _, p := range load.Profiles() {
		if !strings.Contains(out, p.ID) {
			t.Errorf("listing lacks load profile %s", p.ID)
		}
	}
	// Every registered implementation appears in the listing.
	for _, id := range registry.IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("listing lacks implementation %s", id)
		}
	}
	// The guard matrix is listed too.
	for _, spec := range registry.GuardSpecs(false) {
		if !strings.Contains(out, spec.String()) {
			t.Errorf("listing lacks guard spec %s", spec)
		}
	}
}

func TestListJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var index struct {
		Experiments     []struct{ ID string }
		Implementations []struct{ ID string }
	}
	if err := json.Unmarshal(buf.Bytes(), &index); err != nil {
		t.Fatalf("-list -json is not valid JSON: %v", err)
	}
	if len(index.Experiments) != len(bench.Experiments()) || len(index.Implementations) != len(registry.IDs()) {
		t.Errorf("index has %d experiments and %d implementations",
			len(index.Experiments), len(index.Implementations))
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "time-space trade-off") {
		t.Errorf("E2 output missing title:\n%s", out)
	}
	if !strings.Contains(out, "fig3 (1 CAS)") {
		t.Errorf("E2 output missing rows:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E42"}, &buf); err == nil {
		t.Error("want error for unknown experiment")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nonsense"}, &buf); err == nil {
		t.Error("want error for unknown flag")
	}
}

func TestImplFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-impl", "fig4", "-n", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Theorem 3 (Figure 4)", "n+1 registers (= 5 at n=4)", "m=5 (5 registers + 0 CAS)", "throughput probe"} {
		if !strings.Contains(out, want) {
			t.Errorf("-impl fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestImplAllCoversRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-impl", "all", "-n", "4", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct{ ID string }
	unmarshalTables(t, buf.Bytes(), &tables)
	seen := map[string]bool{}
	for _, tbl := range tables {
		seen[tbl.ID] = true
	}
	for _, id := range registry.IDs() {
		if !seen[id] {
			t.Errorf("-impl all lacks %s", id)
		}
	}
}

func TestImplUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-impl", "no-such-impl"}, &buf); err == nil {
		t.Error("want error for unknown implementation")
	}
}

func TestJSONExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E2", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E2" || len(tables[0].Rows) == 0 {
		t.Errorf("unexpected JSON shape: %+v", tables)
	}
}

func TestAppMatrix(t *testing.T) {
	// The acceptance criterion of the guard refactor: -app runs every
	// structure over every protection regime in the registry matrix.
	var buf bytes.Buffer
	if err := run([]string{"-app", "all", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E11" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	rowFor := map[string]bool{}
	for _, row := range tables[0].Rows {
		rowFor[row[0]] = true
	}
	for _, im := range registry.Structures() {
		for _, spec := range registry.GuardSpecs(im.ID != "event") {
			key := im.ID + "/" + spec.String()
			if !rowFor[key] {
				t.Errorf("matrix lacks %s", key)
			}
		}
	}
}

func TestAppSingleStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "queue"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "queue/llsc:fig3") || strings.Contains(out, "stack/raw") {
		t.Errorf("-app queue output wrong:\n%s", out)
	}
}

func TestAppUnknownStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure")
	}
}

func TestScaleMatrixFlag(t *testing.T) {
	// -scale runs E14; -reclaim narrows the scheme.  One structure and one
	// scheme keep the smoke test cheap: 4 regimes × 4 worker counts.
	var buf bytes.Buffer
	if err := run([]string{"-scale", "stack", "-reclaim", "none", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E14" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 16 { // stack × 4 regimes × 1 scheme × 4 worker counts
		t.Fatalf("stack/none matrix has %d rows, want 16", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "stack/") || !strings.HasSuffix(row[0], "+none") {
			t.Errorf("unexpected row key %q", row[0])
		}
		if !strings.HasSuffix(row[6], "x") {
			t.Errorf("row %q scale column %q is not a ratio", row[0], row[6])
		}
	}
	if err := run([]string{"-scale", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure filter")
	}
	if err := run([]string{"-scale", "stack", "-reclaim", "no-such-scheme"}, &buf); err == nil {
		t.Error("want error for unknown scheme filter")
	}
}

func TestImplAllAtNOne(t *testing.T) {
	// n=1 is a supported registry point; the structure probes must degrade
	// (the event probe clamps to a signaler + poller) instead of failing
	// the whole report.
	var buf bytes.Buffer
	if err := run([]string{"-impl", "all", "-n", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"stack", "queue", "event", "map"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("-impl all -n 1 report lacks %s", id)
		}
	}
}

func TestLoadMatrixFlag(t *testing.T) {
	// -load runs E13; -reclaim and -app narrow the matrix.  One profile and
	// one scheme keep the smoke test cheap: 4 regimes worth of rows, each
	// carrying latency percentiles.
	var buf bytes.Buffer
	if err := run([]string{"-load", "steady", "-reclaim", "none", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E13" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 8 { // map × 4 regimes × 1 scheme × 1 profile × 2 variants
		t.Fatalf("steady/none matrix has %d rows, want 8", len(tables[0].Rows))
	}
	wantCols := []string{"p50", "p99", "p999", "shed", "fast-path"}
	for _, col := range wantCols {
		found := false
		for _, h := range tables[0].Header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Errorf("E13 header lacks the %s column", col)
		}
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "map/") ||
			!(strings.HasSuffix(row[0], "+none/steady") || strings.HasSuffix(row[0], "+none/steady+cache16")) {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
	if err := run([]string{"-load", "no-such-profile"}, &buf); err == nil {
		t.Error("want error for unknown load profile")
	}
	if err := run([]string{"-load", "steady", "-app", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure filter")
	}
}

func TestLoadMatrixTuningFlags(t *testing.T) {
	// -elim/-cache pin every cell to one explicit tuning, and
	// -seed replays the profile on a different RNG stream.
	var buf bytes.Buffer
	if err := run([]string{"-load", "steady", "-reclaim", "none", "-app", "stack",
		"-elim", "2", "-cache", "8", "-seed", "42", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("pinned matrix has %d tables / %d rows, want 1 / 4", len(tables), len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "stack/") || !strings.HasSuffix(row[0], "+elim2+cache8") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
}

func TestReclaimMatrixFlag(t *testing.T) {
	// -reclaim runs E12; -app narrows the structure.  The event flag keeps
	// the smoke test cheap (no node pool, no contention).
	var buf bytes.Buffer
	if err := run([]string{"-reclaim", "none", "-app", "event", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E12" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 4 { // event × 4 regimes × 1 scheme
		t.Fatalf("event/none matrix has %d rows, want 4", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "event/") || !strings.HasSuffix(row[0], "+none") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
	if err := run([]string{"-reclaim", "no-such-scheme"}, &buf); err == nil {
		t.Error("want error for unknown reclamation scheme")
	}
	if err := run([]string{"-reclaim", "hp", "-app", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure filter")
	}
}

func TestGrowMatrixFlag(t *testing.T) {
	// -grow runs E15; -grow-keys caps the sweep to its smallest tier so the
	// smoke stays cheap.  A cap below the smallest tier must error rather
	// than silently produce an empty table.
	var buf bytes.Buffer
	if err := run([]string{"-grow", "-grow-keys", "10000", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E15" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 12 { // 4 regimes × 3 schemes, 10k tier only
		t.Fatalf("capped growth matrix has %d rows, want 12", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "map/") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
	if err := run([]string{"-grow", "-grow-keys", "5"}, &buf); err == nil {
		t.Error("want error for a cap below the smallest tier")
	}
}

func TestPressureMatrixFlag(t *testing.T) {
	// -pressure smoke runs E16 with trimmed per-cell ops; an unknown tier
	// must error rather than silently run the full matrix.
	var buf bytes.Buffer
	if err := run([]string{"-pressure", "smoke", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E16" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	for _, col := range []string{"limbo", "alloc-miss", "scans", "skips", "batches", "tune"} {
		if !strings.Contains(strings.Join(tables[0].Header, ","), col) {
			t.Errorf("pressure matrix lacks the %s column", col)
		}
	}
	schemes := map[string]bool{}
	for _, row := range tables[0].Rows {
		schemes[strings.SplitN(row[0], "/", 3)[1]] = true
	}
	for _, s := range []string{"none", "hp", "epoch", "epoch:64", "epoch:auto"} {
		if !schemes[s] {
			t.Errorf("pressure matrix lacks scheme %q", s)
		}
	}
	if err := run([]string{"-pressure", "medium-rare"}, &buf); err == nil {
		t.Error("want error for an unknown pressure tier")
	}
}
