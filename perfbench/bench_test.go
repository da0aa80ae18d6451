package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"abadetect/internal/registry"
)

// passOps is the length of the single-worker seeded passes.
const passOps = 20000

// pass drives one worker through passOps ops of w's seed-1 stream on the
// facade build (L == nil) or the traced build.
func pass(t *testing.T, w *workload, L *layers) (*target, []workerResult, window, snapshot, snapshot) {
	t.Helper()
	tg, err := w.setup(L)
	if err != nil {
		t.Fatal(err)
	}
	ledger := w.newLedger()
	var before, after snapshot
	if L != nil {
		before = tg.snapshot()
	}
	res, win, err := w.drive(tg, w.streams(1), phase{opsLimit: passOps, workers: 1, results: true}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if L != nil {
		after = tg.snapshot()
	}
	if res[0].failed != 0 {
		t.Fatalf("%s: %d of %d ops failed", w.name, res[0].failed, res[0].ops)
	}
	return tg, res, win, before, after
}

func skipLarge(t *testing.T, w *workload) {
	if testing.Short() && w.prefill > 1<<16 {
		t.Skipf("%s: large set-up skipped in -short mode", w.name)
	}
}

// TestStreamsArePure pins op generation to (workload, seed).
func TestStreamsArePure(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digest(w.streams(7)), digest(w.streams(7)), digest(w.streams(8))
		if a != b {
			t.Errorf("%s: seed 7 gave digests %#x and %#x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %#x", w.name, a)
		}
	}
}

// TestTracedBuildIsSameProgram checks that the traced build, which mirrors
// the facade's wiring with every seam wrapped, computes exactly what the
// facade build computes.
func TestTracedBuildIsSameProgram(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipLarge(t, w)
			ft, fres, _, _, _ := pass(t, w, nil)
			tt, tres, _, _, _ := pass(t, w, newLayers(1<<12))
			if fres[0].results != tres[0].results {
				t.Errorf("op results differ: facade digest %#x, traced %#x", fres[0].results, tres[0].results)
			}
			if ft.objects != tt.objects {
				t.Errorf("Footprint().Objects(): facade %d, traced %d", ft.objects, tt.objects)
			}
			if ft.audit != nil && !reflect.DeepEqual(ft.audit(), tt.audit()) {
				t.Errorf("StructureAudit: facade %+v, traced %+v", ft.audit(), tt.audit())
			}
			if fg, tg := ft.guards(), tt.guards(); fg != tg {
				t.Errorf("GuardMetrics: facade %+v, traced %+v", fg, tg)
			}
		})
	}
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// TestStepCountsAreExact checks that shared-memory steps, a count the
// program's own algorithms fix, repeat exactly across seeded passes, and
// that Figure 4 costs what the paper says.
func TestStepCountsAreExact(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipLarge(t, w)
			var per [2]float64
			for i := range per {
				L := newLayers(1 << 12)
				_, res, win, before, after := pass(t, w, L)
				rep := &report{}
				w.layerMetrics(rep, L, res, win, before, after, poolTimes{})
				per[i], _ = rep.value("shmem.steps_per_op")
				if per[i] <= 0 {
					t.Fatalf("pass %d: shmem.steps_per_op = %v", i, per[i])
				}
				if w.kind != arrayStruct {
					continue
				}
				// Figure 4: DWrite is lines 26-27 (GetSeq's one read, the
				// write of X), DRead lines 38-41 (read X, read and write the
				// announcement, re-read X).  The registry records the class.
				im := registry.MustLookup("fig4")
				if im.Steps != "O(1)" {
					t.Errorf("fig4 registry t(n) = %s, want O(1)", im.Steps)
				}
				if got, want := L.steps.Footprint().Objects(), im.SpaceFn(procs)*w.capacity; got != want {
					t.Errorf("footprint %d objects, want shards x m(n) = %d", got, want)
				}
				for name, want := range map[string]float64{"core.dwrite_steps": 2, "core.dread_steps": 4} {
					if got, _ := rep.value(name); got != want {
						t.Errorf("%s = %v, want %v", name, got, want)
					}
				}
			}
			if per[0] != per[1] {
				t.Errorf("shmem.steps_per_op differs across identical passes: %v vs %v", per[0], per[1])
			}
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs the short workloads through the
// command line and checks the last output line against BENCHMARK.json: the
// four result keys, and exactly the declared metrics with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name || sw.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, sw.Name, sw.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, tc := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "stack-pairs", "--seed", "3", "--seconds", "1", "--trace", tc.trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("trace %s: result keys %v", tc.trace, keys)
		}
		var ms map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(res["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(tc.want) {
			t.Errorf("trace %s: %d metrics printed, %d declared", tc.trace, len(ms), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := ms[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s printed as %+v (present=%v), declared unit %s", tc.trace, m.Name, got, ok, m.Unit)
			}
		}
		if string(res["correct"]) != "true" {
			t.Errorf("trace %s: correct = %s", tc.trace, res["correct"])
		}
	}
}
