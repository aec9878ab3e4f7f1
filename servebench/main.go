// Command servebench is the serving benchmark. It boots the repository's
// own cmd/matchd (with -mmap) and cmd/router on snapshots that
// cmd/dictbuild writes at a fixed seed, drives one named workload of
// labelled queries generated from -seed, checks every response, and
// prints the metrics BENCHMARK.json lists, one JSON object on the last
// line of standard output.
//
// Run it from the repository root through run.sh, which builds the
// binaries first:
//
//	bash servebench/run.sh --workload head --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// first repeats the untraced run for half the time, with GC tracing on
// in the serving processes, then serves the same workload from the same
// packages inside this process with a span around every call into a
// layer's public entry point, probes the inner layers on a sample of the
// workload, and reports the per-layer ledger. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"websyn/internal/serve"
)

// workload is one traffic mix.
type workload struct {
	router  bool    // send through cmd/router to two replicas
	rate    float64 // open-loop requests per second; 0 = closed loop
	batch   int     // items per request
	clients int     // closed loop: clients sending back to back
}

var workloads = map[string]workload{
	// Interactive front end: single queries, Zipf-popular, open loop.
	"head": {rate: 1500, batch: 1},
	// Bulk annotation: never-repeating queries in batches, closed loop.
	// One client: with two, throughput follows how much of the second
	// vCPU the host grants (a CPU hog cut it 23% against 12% with one),
	// which moved it ~20% between runs.
	"tail": {batch: 32, clients: 1},
	// The head stream through the router hop to two replicas.
	"fleet": {router: true, rate: 800, batch: 1},
}

const (
	warmup    = 2 * time.Second // traffic before measuring, so caches fill
	boots     = 11              // set-up is the median of this many boots
	snapSeed  = "1"             // dictbuild -seed for every snapshot
	probeSize = 600             // distinct queries the layer probes time
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: head, tail or fleet")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same queries and schedule")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the built matchd, router and dictbuild")
		work    = flag.String("work", "", "directory for snapshots, logs, traces and results")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench -bin DIR -work DIR --workload head|tail|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &runner{name: *name, w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: *work}
	out, err := r.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type runner struct {
	name    string
	w       workload
	seed    uint64
	seconds time.Duration
	bin     string
	work    string

	snapPaths map[string]string
	snaps     map[string]*serve.Snapshot
	pool      *pool
	ctx       []string
	conns     int
	logDir    string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *runner) run(traced bool) (*result, error) {
	r.conns = runtime.NumCPU()
	if r.w.rate == 0 {
		r.conns = r.w.clients
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	r.logDir = filepath.Join(r.work, "logs", fmt.Sprintf("%s-%d-%s", r.name, r.seed, mode))
	if err := os.MkdirAll(r.logDir, 0o755); err != nil {
		return nil, err
	}
	if err := r.snapshots(); err != nil {
		return nil, err
	}
	var err error
	if r.pool, err = buildPool(r.snaps, r.seed); err != nil {
		return nil, err
	}
	r.ctx = contexts(r.snaps)

	fmt.Printf("servebench: workload %s, seed %d, %s, %v measured after %v warm-up\n", r.name, r.seed, mode, r.seconds, warmup)
	host := r.host()
	fmt.Printf("host: %s\n", host)
	fmt.Printf("query pool: %d distinct labelled queries (%d unlabelled dropped), %d tail contexts\n",
		len(r.pool.queries), r.pool.unlabelled, len(r.ctx))

	var out *result
	if !traced {
		e, err := r.endToEnd(r.seconds, boots, false)
		if err != nil {
			return nil, err
		}
		out = r.e2eResult(e)
	} else {
		half := max(r.seconds/2, time.Second)
		e, err := r.endToEnd(half, 1, true)
		if err != nil {
			return nil, err
		}
		tr, err := r.traced(half)
		if err != nil {
			return nil, err
		}
		out = r.layerResult(e, tr)
	}
	resDir := filepath.Join(r.work, "results")
	if err := os.MkdirAll(resDir, 0o755); err == nil {
		saved := struct {
			Host   string  `json:"host"`
			Result *result `json:"result"`
		}{host, out}
		b, _ := json.MarshalIndent(saved, "", "  ") // plain data always marshals
		// Best effort: the result is printed either way.
		_ = os.WriteFile(filepath.Join(resDir, fmt.Sprintf("%s-%d-%s.json", r.name, r.seed, mode)), b, 0o644)
	}
	return out, nil
}

// snapshots builds the three verticals' snapshots with dictbuild at a
// fixed seed, once per dictbuild binary, and opens them for the
// generator's labels.
func (r *runner) snapshots() error {
	sum, err := fileSHA(filepath.Join(r.bin, "dictbuild"))
	if err != nil {
		return err
	}
	dir := filepath.Join(r.work, "snapshots", sum[:16])
	if _, err := os.Stat(filepath.Join(dir, "done")); err != nil {
		tmp := dir + ".tmp"
		os.RemoveAll(tmp)
		cmd := exec.Command(filepath.Join(r.bin, "dictbuild"), "-dataset", "all", "-seed", snapSeed, "-o", tmp)
		if b, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("dictbuild: %v\n%s", err, b)
		}
		if err := os.WriteFile(filepath.Join(tmp, "done"), nil, 0o644); err != nil {
			return err
		}
		os.RemoveAll(dir)
		if err := os.Rename(tmp, dir); err != nil {
			return err
		}
	}
	r.snapPaths = map[string]string{}
	r.snaps = map[string]*serve.Snapshot{}
	for _, d := range []string{"cameras", "movies", "software"} {
		p := filepath.Join(dir, d+".snap")
		s, err := serve.OpenSnapshotMapped(p)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", d, err)
		}
		r.snapPaths[d] = p
		r.snaps[d] = s
	}
	return nil
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// host describes the host and build the numbers come from.
func (r *runner) host() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	matchd, _ := fileSHA(filepath.Join(r.bin, "matchd"))
	if len(matchd) > 12 {
		matchd = matchd[:12]
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, cpu %q, %s, commit %s, matchd sha256 %s, connections %d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), commit, matchd, r.conns)
}

// e2e is one untraced pass against the real serving processes.
type e2e struct {
	setups  []time.Duration
	t       *tally
	window  time.Duration // measured wall time
	rssMB   float64
	delta   counters
	gc      int
	gcPause float64
}

func (r *runner) schedule(total time.Duration) schedule {
	return newSchedule(r.pool, r.seed, r.w.rate, total)
}

// drive runs the workload's generator against url and returns its
// tally and measured wall time. mark, if set, runs when measuring
// starts.
func (r *runner) drive(url string, measure time.Duration, sink spanSink, mark func()) (*tally, time.Duration, error) {
	c := newClient(r.conns)
	defer c.CloseIdleConnections()
	var sched schedule
	var ts *tailStream
	if r.w.rate > 0 {
		sched = r.schedule(warmup + measure)
	} else {
		ts = newTailStream(r.pool, r.ctx, r.seed)
	}
	if mark != nil {
		timer := time.AfterFunc(warmup, mark)
		defer timer.Stop()
	}
	if r.w.rate > 0 {
		return openLoop(c, url, r.pool, sched, r.conns, warmup, warmup+measure, sink), measure, nil
	}
	return closedLoop(c, url, ts, r.w.batch, r.conns, warmup, warmup+measure, sink)
}

func (r *runner) endToEnd(measure time.Duration, n int, gctrace bool) (*e2e, error) {
	e := &e2e{}
	var f *fleetProcs
	for i := 0; i < n; i++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		var err error
		if f, d, err = boot(r.bin, r.logDir, r.snapPaths, r.w.router, gctrace); err != nil {
			return nil, err
		}
		e.setups = append(e.setups, d)
	}
	defer f.stop()

	var c0 counters
	var from time.Time
	markErr := make(chan error, 1)
	t, window, err := r.drive(f.url, measure, nil, func() {
		from = time.Now()
		var err error
		c0, err = f.counters()
		markErr <- err
	})
	if err != nil {
		return nil, err
	}
	if err := <-markErr; err != nil {
		return nil, err
	}
	to := time.Now()
	c1, err := f.counters()
	if err != nil {
		return nil, err
	}
	e.t, e.window, e.delta = t, window, c1.sub(c0)
	if e.rssMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	if gctrace {
		for _, p := range f.procs {
			n, pause, err := p.gcIn(from, to)
			if err != nil {
				return nil, err
			}
			e.gc += n
			e.gcPause += pause
		}
	}
	return e, nil
}

func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

const (
	p99Window        = 5 * time.Second // nominal p99 window
	minWindowSamples = 1000            // so every window has 10 samples beyond its p99
)

// printP99 reports the tail latency, which BENCHMARK.json lists as the
// per-layer metric latency.p99_ms rather than an end-to-end one: on a
// host whose vCPUs are stalled for milliseconds at a time, it moves by
// half its value from run to run.
func (r *runner) printP99(t *tally, measured time.Duration) {
	lat := t.inOrder()
	k := p99Windows(len(lat), measured)
	n := len(lat) / k
	fmt.Printf("  %-8s %14.6f %-10s median of %d windows of %d samples (%d beyond each window's p99); whole run %.3f ms; not gated\n",
		"p99_ms", ms(windowedP99(lat, measured)), "ms", k, n, n-int(0.99*float64(n)), ms(percentile(lat, 0.99)))
}

func p99Windows(samples int, measured time.Duration) int {
	return max(1, min(int(measured/p99Window), samples/minWindowSamples))
}

// windowedP99 splits the samples, in send order, into equal windows of
// about p99Window each (fewer if a window would hold under
// minWindowSamples) and returns the median of the windows' 99th
// percentiles: one stall moves one window, not the run's figure.
func windowedP99(lat []time.Duration, measured time.Duration) time.Duration {
	k := p99Windows(len(lat), measured)
	var p []float64
	for i := 0; i < k; i++ {
		p = append(p, float64(percentile(lat[i*len(lat)/k:(i+1)*len(lat)/k], 0.99)))
	}
	return time.Duration(median(p))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// correct reports whether every response passed its checks and the
// exact class, dictionary strings sent verbatim, resolved.
func (r *runner) correct(t *tally) bool {
	exact, n := t.recall("exact")
	return t.failed == 0 && n > 0 && exact >= minExactRecall
}

// minExactRecall is the floor on exact-class recall below which the
// run's outputs count as wrong.
const minExactRecall = 0.95

func (r *runner) e2eResult(e *e2e) *result {
	t := e.t
	var setups []float64
	for _, d := range e.setups {
		setups = append(setups, d.Seconds())
	}
	recall, n := t.recall("")
	p50 := percentile(t.lat, 0.50)
	m := map[string]float64{
		"setup_s": median(setups),
		"p50_ms":  ms(p50),
		"qps":     float64(t.items) / e.window.Seconds(),
		"recall":  recall,
		"rss_mb":  e.rssMB,
	}
	unit := "request"
	if r.w.batch > 1 {
		unit = fmt.Sprintf("batch of %d", r.w.batch)
	}
	fmt.Printf("requests: sent %d, succeeded %d, failed %d", t.sent, t.sent-t.failed, t.failed)
	if t.firstErr != "" {
		fmt.Printf(" (first failure: %s)", t.firstErr)
	}
	fmt.Println()
	fmt.Printf("latency samples: %d (one per %s)\n", len(t.lat), unit)
	r.printP99(t, r.seconds)
	exact, _ := t.recall("exact")
	fmt.Printf("recall over %d distinct labelled queries; exact class %.4f; repeated share %.3f of %d measured queries\n",
		n, exact, ratio(float64(t.repeats), float64(t.measuredItemsSeen)), t.measuredItemsSeen)
	fmt.Printf("setup boots (s): %v\n", setups)
	if r.w.rate > 0 {
		fmt.Printf("generator wake-up lateness: p50 %.3f ms, p99 %.3f ms; %d requests waited for a busy connection\n",
			ms(percentile(t.late, 0.5)), ms(percentile(t.late, 0.99)), t.queued)
	}
	out := &result{Correct: r.correct(t), Attempted: t.sent, Failed: t.failed, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		out.Metrics[d.name] = value{m[d.name], d.unit}
		fmt.Printf("  %-8s %14.6f %-10s %s\n", d.name, m[d.name], d.unit, d.layer)
	}
	return out
}
