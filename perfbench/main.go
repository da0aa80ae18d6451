// Command perfbench is the repository's benchmark: it drives the public
// abadetect facade (NewMap, NewStack, NewShardedDetectingArray and their
// handles) through one of four seeded closed-loop workloads, checks every
// answer, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced build of the same structures.
//
//	go build -o perfbench . && ./perfbench --workload map-churn-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name and unit, with sample counts, and the machine stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	name    string
	value   float64
	unit    string
	samples uint64 // 0 when the value is not a sample statistic
}

type report struct {
	attempted, failed uint64
	metrics           []metric
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the op streams are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	measure := time.Duration(*seconds) * time.Second
	var rep *report
	if *traced == 1 {
		rep, err = w.tracedRun(*seed, measure, *spansDir)
	} else {
		rep, err = w.untracedRun(*seed, measure)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(stdout, w, *seed, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func printReport(out io.Writer, w *workload, seed uint64, rep *report) error {
	fmt.Fprintf(out, "# workload=%s seed=%d procs=%d workers=%d %s\n", w.name, seed, procs, workers, stamp())
	ms := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		line := fmt.Sprintf("%-28s %16.4f %s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf("  (samples=%d)", m.samples)
		}
		fmt.Fprintln(out, line)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	failFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(out, "%-28s %16.6g fraction  (failed=%d attempted=%d)\n", "fail_frac", failFrac, rep.failed, rep.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   ms,
	})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// stamp names the machine and build a result came from.
func stamp() string {
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d go=%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
}

// commit is the VCS revision stamped into the binary, else the checkout's
// git HEAD, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look for a repository in the working directory only.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
