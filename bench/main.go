// Command bench is the repository's benchmark: four workloads from the wire
// to the device, end-to-end metrics with bounds, and per-layer metrics timed
// from outside the program. README.md in this directory is the manual.
//
//	bash bench/run.sh -workload all -trace 1
//
// prints every metric as "workload metric value unit n=samples" and, as the
// last line of each workload, one JSON object for the driver. It exits
// non-zero if any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// watchdog bounds one workload. The driver allows a run 180 s; the dump and
// the clean-up must fit in what is left.
const watchdog = 170 * time.Second

func main() {
	var cfg config
	sel := flag.String("workload", "all", "workload to run: all, kv-write, mixed-cold, xshard-2pc or paper-sim")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated transaction streams")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "sizes the measured phase: about this many seconds of work on the sizing machine (rate x seconds transactions per client)")
	trace := flag.Int("trace", 0, "1 = also run the traced layer ladder and report the per-layer metrics")
	repeat := flag.Int("repeat", 0, "A/A mode: run the workloads N times (seed, seed+1, ...) and report each end-to-end metric's spread next to its bound")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies dataset and warm-up sizes (recorded in the output)")
	flag.StringVar(&cfg.dir, "dir", os.TempDir(), "directory the work directories are created in")
	flag.StringVar(&cfg.out, "out", "", "directory for results.json and <workload>.spans.jsonl (default: write neither)")
	flag.Parse()
	cfg.trace = *trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 || cfg.scale <= 0 || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		exit(2)
	}

	// Temp directories go away on every exit path: normal return, failure,
	// watchdog, signal and panic.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		exit(130)
	}()
	defer guard()

	selected, err := selectWorkloads(*sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		exit(2)
	}
	for _, dir := range []string{cfg.dir, cfg.out} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				exit(2)
			}
		}
	}
	env := environment(&cfg)
	fmt.Println("# " + env.String())

	ok := true
	var all []*result
	runs := max(*repeat, 1)
	for i := 0; i < runs; i++ {
		c := cfg
		c.seed += int64(i)
		for _, w := range selected {
			res, err := runOne(w, &c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				exit(1)
			}
			all = append(all, res)
			ok = ok && res.Correct
			printResult(res, cfg.trace)
		}
	}
	if *repeat > 0 {
		ok = printSpread(selected, all) && ok
	}
	if cfg.out != "" {
		if err := writeResults(filepath.Join(cfg.out, "results.json"), env, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit(1)
		}
	}
	if !ok {
		exit(1)
	}
	exit(0)
}

// workload is one selectable workload.
type workload struct {
	name string
	run  func(*config) (*result, error)
}

func selectWorkloads(sel string) ([]workload, error) {
	var all []workload
	for _, sp := range wireSpecs {
		all = append(all, workload{sp.name, func(cfg *config) (*result, error) { return runWire(sp, cfg) }})
	}
	all = append(all, workload{simName, runSim})
	if sel == "all" {
		return all, nil
	}
	var names []string
	for _, w := range all {
		if w.name == sel {
			return []workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", sel, strings.Join(names, ", "))
}

// runOne runs one workload under the watchdog.
func runOne(w workload, cfg *config) (*result, error) {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: watchdog: no result after %s; goroutines:\n", w.name, watchdog)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		exit(4)
	})
	defer timer.Stop()
	return w.run(cfg)
}

// printResult prints every metric by name, then the driver's JSON object as
// the last line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printResult(res *result, traced bool) {
	for _, ms := range [][]metric{res.EndToEnd, res.PerLayer} {
		for _, m := range ms {
			fmt.Printf("%s %s %s %s n=%d\n", res.Workload, m.Name, formatValue(m.Value), m.Unit, m.N)
		}
	}
	if res.Error != "" {
		fmt.Printf("# %s: first failure: %s\n", res.Workload, res.Error)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	ms := res.EndToEnd
	if traced {
		ms = res.PerLayer
	}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(b))
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printSpread is the A/A report: per workload and end-to-end metric the
// median, the quartiles and (max-min)/median of the runs next to the bound.
// It returns false if any spread exceeds its bound.
func printSpread(selected []workload, all []*result) bool {
	ok := true
	fmt.Println("# A/A: workload metric median q1 q3 iqr/median (max-min)/median bound")
	for _, w := range selected {
		for mi, d := range endToEnd {
			var vs []float64
			for _, res := range all {
				if res.Workload == w.name {
					vs = append(vs, res.EndToEnd[mi].Value)
				}
			}
			sort.Float64s(vs)
			med := median(vs)
			q1, q3 := quartile(vs, 1), quartile(vs, 3)
			flag := ""
			if ratio(q3-q1, med) > d.bound {
				flag, ok = " SPREAD>BOUND", false
			}
			fmt.Printf("# A/A %s %s %s %s %s %.4f %.4f %.2f%s\n", w.name, d.name,
				formatValue(med), formatValue(q1), formatValue(q3),
				ratio(q3-q1, med), ratio(vs[len(vs)-1]-vs[0], med), d.bound, flag)
		}
	}
	return ok
}

// quartile is the i-th quartile of sorted vs as Python's
// statistics.quantiles(vs, n=4) gives it, which is what the driver uses.
func quartile(vs []float64, i int) float64 {
	n := len(vs)
	if n < 2 {
		return vs[0]
	}
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
}

// writeResults writes results.json in one piece: to a temporary file first,
// renamed into place, so a reader never sees a partial file.
func writeResults(path string, env envStamp, all []*result) error {
	b, err := json.MarshalIndent(struct {
		Env     envStamp  `json:"env"`
		Results []*result `json:"results"`
	}{env, all}, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Work directories are registered so that exit can remove them whatever
// path leads there.
var (
	workMu   sync.Mutex
	workDirs = map[string]bool{}
)

func newWorkDir(parent, name string) (string, error) {
	dir, err := os.MkdirTemp(parent, "siasbench-"+name+"-")
	if err != nil {
		return "", err
	}
	workMu.Lock()
	workDirs[dir] = true
	workMu.Unlock()
	return dir, nil
}

func removeWorkDir(dir string) {
	if dir == "" {
		return
	}
	os.RemoveAll(dir)
	workMu.Lock()
	delete(workDirs, dir)
	workMu.Unlock()
}

// guard, deferred in main and in every goroutine the benchmark starts, turns
// a panic into a reported failure that still removes the work directories.
func guard() {
	if p := recover(); p != nil {
		fmt.Fprintf(os.Stderr, "bench: panic: %v\n%s", p, debug.Stack())
		exit(3)
	}
}

// exit removes every work directory and ends the process.
func exit(code int) {
	workMu.Lock()
	for dir := range workDirs {
		os.RemoveAll(dir)
	}
	workMu.Unlock()
	os.Exit(code)
}

// envStamp records where the numbers were taken.
type envStamp struct {
	Git        string  `json:"git"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	FS         string  `json:"fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

func (e envStamp) String() string {
	return fmt.Sprintf("git=%s go=%s nproc=%d gomaxprocs=%d fs=%s seed=%d seconds=%g scale=%g",
		e.Git, e.Go, e.NumCPU, e.GoMaxProcs, e.FS, e.Seed, e.Seconds, e.Scale)
}

func environment(cfg *config) envStamp {
	return envStamp{
		Git: gitHead(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		FS: fsType(cfg.dir), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
	}
}

// gitHead reads the checked-out commit from .git without running git; a
// checkout that is not a repository reads "unknown".
func gitHead() string {
	dir, err := os.Getwd()
	for err == nil {
		head, herr := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if herr == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(sha))
				}
				return name // packed ref: the branch name is what is left
			}
			return ref
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "unknown"
}

// fsType finds the filesystem of dir in /proc/mounts (longest mount point
// that is a prefix of dir).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// resetPeakRSS restarts the kernel's high-water mark of resident memory, so
// that in a run of several workloads each reports its own peak. Where
// /proc/self/clear_refs is not writable the mark stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
