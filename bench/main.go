// Command bench is the repository's end-to-end benchmark. It runs one of
// four workloads (or all of them, each in its own child process), checks
// every output, and prints each metric by name with its unit, then one
// JSON result line:
//
//	bash bench/run.sh -workload corpus -seed 1 -seconds 20 -trace 0
//
// corpus and depthk analyze the paper's benchmark programs in a closed
// loop in process; serve-hot and serve-cold drive the analysis service
// over loopback HTTP with open-loop Poisson arrivals. -trace 1 runs the
// traced variant, which reports per-layer metrics instead of end-to-end
// ones. See README.md.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloads in the order -workload all runs them.
var workloads = []string{"corpus", "depthk", "serve-hot", "serve-cold"}

// errInvalid marks a run whose load generator could not keep its
// schedule; it reports no numbers.
var errInvalid = errors.New("invalid run")

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	toy      bool      // test-sized inputs and steps, for the tests
	workDir  string    // scratch directory for store files
	log      io.Writer // human-readable lines
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments and runs the benchmark, returning the exit
// code: 0 for a valid run with correct outputs, 1 for wrong outputs or an
// error, 2 for bad usage, 3 for an invalid run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "corpus, depthk, serve-hot, serve-cold or all")
	seed := fs.Int64("seed", 1, "seed for the generated inputs and arrivals")
	seconds := fs.Float64("seconds", 20, "measuring time per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this JSON file")
	golden := fs.String("write-golden", "", "recompute and cross-check the golden hashes, write them to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1 and -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	workDir := ""
	err := os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		workDir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceOut: *traceOut,
		workDir:  workDir,
		log:      stdout,
	}
	return runWorkload(cfg, stdout, stderr)
}

// runWorkload runs one workload in this process and prints its report.
func runWorkload(cfg config, stdout, stderr io.Writer) int {
	rep := newReport(cfg.workload, cfg.trace)
	var err error
	switch cfg.workload {
	case "corpus":
		err = runBatch(cfg, corpusTasks(cfg.toy), rep)
	case "depthk":
		err = runBatch(cfg, depthkTasks(cfg.toy), rep)
	case "serve-hot", "serve-cold":
		err = runServe(cfg, cfg.workload, rep)
	default:
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s or all)\n",
			cfg.workload, strings.Join(workloads, ", "))
		return 2
	}
	if errors.Is(err, errInvalid) {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 3
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that each
// one's peak memory is its own, and passes their output through.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// memDelta is the Go runtime's allocation and GC activity over an
// interval.
type memDelta struct {
	alloc  uint64 // bytes allocated
	cycles uint32 // GC cycles completed
	pause  uint64 // stop-the-world pause, ns
}

func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// readMemDelta returns the activity since before.
func readMemDelta(before *runtime.MemStats) memDelta {
	now := memSnapshot()
	return memDelta{
		alloc:  now.TotalAlloc - before.TotalAlloc,
		cycles: now.NumGC - before.NumGC,
		pause:  now.PauseTotalNs - before.PauseTotalNs,
	}
}

func (m *memDelta) add(o memDelta) {
	m.alloc += o.alloc
	m.cycles += o.cycles
	m.pause += o.pause
}

// report sets the runtime metrics per operation over n operations.
func (m memDelta) report(rep *report, n int) {
	per := float64(max(n, 1))
	rep.set("go.alloc_kb", "KiB/op", float64(m.alloc)/1024/per, n)
	rep.set("go.gc_cycles", "count/op", float64(m.cycles)/per, n)
	rep.set("go.gc_pause_ms", "ms/op", float64(m.pause)/1e6/per, n)
}

// resetPeakRSS restarts the peak resident set (VmHWM) from the current
// resident set, where Linux allows it; otherwise the peak stays the
// process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	m := memSnapshot()
	return float64(m.Sys) / (1 << 20)
}
