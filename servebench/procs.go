package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"websyn/internal/fleet"
	"websyn/internal/serve"
)

// proc is one serving process the benchmark started.
type proc struct {
	name  string
	cmd   *exec.Cmd
	log   string
	start time.Time
	done  chan struct{}
}

func startProc(name, bin string, args []string, logPath string, env []string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, log: logPath, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not interesting
		f.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain and exit, kills it after a grace
// period, and returns once it has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", p.name)
}

// gcLine matches a GODEBUG=gctrace=1 line: cycle start time since
// process start, then the wall-clock phases, of which the first and
// third stop the world.
var gcLine = regexp.MustCompile(`^gc \d+ @([0-9.]+)s [0-9]+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)

// gcIn counts the GC cycles that started in the wall-clock window and
// sums their stop-the-world pauses, from the process's gctrace log.
func (p *proc) gcIn(from, to time.Time) (cycles int, pauseMS float64, err error) {
	f, err := os.Open(p.log)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	lo, hi := from.Sub(p.start).Seconds(), to.Sub(p.start).Seconds()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		at, _ := strconv.ParseFloat(m[1], 64)
		if at < lo || at >= hi {
			continue
		}
		a, _ := strconv.ParseFloat(m[2], 64)
		c, _ := strconv.ParseFloat(m[3], 64)
		cycles++
		pauseMS += a + c
	}
	return cycles, pauseMS, sc.Err()
}

// freePort reserves an ephemeral loopback port and releases it for a
// child process to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// fleetProcs is one booted serving topology: a single matchd for head
// and tail, two matchd replicas behind cmd/router for fleet.
type fleetProcs struct {
	procs    []*proc
	url      string   // where the generator sends requests
	statsURL []string // matchd /statsz endpoints
	router   string   // router /statsz endpoint ("" without a router)
}

func (f *fleetProcs) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func (f *fleetProcs) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range f.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// boot launches the serving processes on prebuilt snapshots and returns
// once every listener answers and, with a router, the router reports
// every replica healthy. The returned duration is the set-up time.
func boot(bin, logDir string, snaps map[string]string, withRouter, gctrace bool) (*fleetProcs, time.Duration, error) {
	var domains []string
	for d := range snaps {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	var env []string
	if gctrace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	replicas := 1
	if withRouter {
		replicas = 2
	}
	type replica struct{ http, wire string }
	reps := make([]replica, replicas)
	for i := range reps {
		var err error
		if reps[i].http, err = freePort(); err != nil {
			return nil, 0, err
		}
		if withRouter {
			if reps[i].wire, err = freePort(); err != nil {
				return nil, 0, err
			}
		}
	}
	routerAddr := ""
	if withRouter {
		var err error
		if routerAddr, err = freePort(); err != nil {
			return nil, 0, err
		}
	}

	f := &fleetProcs{}
	t0 := time.Now()
	for i, r := range reps {
		args := []string{"-mmap", "-addr", r.http}
		for _, d := range domains {
			args = append(args, "-snapshot", d+"="+snaps[d])
		}
		if r.wire != "" {
			args = append(args, "-fleet-addr", r.wire)
		}
		p, err := startProc(fmt.Sprintf("matchd-%d", i), filepath.Join(bin, "matchd"), args,
			filepath.Join(logDir, fmt.Sprintf("matchd-%d.log", i)), env)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.procs = append(f.procs, p)
		f.statsURL = append(f.statsURL, "http://"+r.http+"/statsz")
		f.url = "http://" + r.http
	}
	if withRouter {
		args := []string{"-addr", routerAddr}
		for _, r := range reps {
			args = append(args, "-replica", r.wire+"=http://"+r.http)
		}
		p, err := startProc("router", filepath.Join(bin, "router"), args, filepath.Join(logDir, "router.log"), env)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.procs = append(f.procs, p)
		f.url = "http://" + routerAddr
		f.router = f.url + "/statsz"
	}

	// Each check is retried only until it first passes, so polling opens
	// about one connection per listener per boot.
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	var checks []func() bool
	for _, r := range reps {
		checks = append(checks, func() bool { return httpOK(c, "http://"+r.http+"/healthz") })
		if r.wire != "" {
			checks = append(checks, func() bool {
				conn, err := net.DialTimeout("tcp", r.wire, time.Second)
				if err != nil {
					return false
				}
				conn.Close()
				return true
			})
		}
	}
	if withRouter {
		checks = append(checks, func() bool {
			var st fleet.RouterStats
			if getJSON(c, f.router, &st) != nil || len(st.Replicas) != len(reps) {
				return false
			}
			for _, r := range st.Replicas {
				if !r.Healthy {
					return false
				}
			}
			return true
		})
	}
	ready := func() bool {
		for len(checks) > 0 && checks[0]() {
			checks = checks[1:]
		}
		return len(checks) == 0
	}
	deadline := t0.Add(60 * time.Second)
	for !ready() {
		for _, p := range f.procs {
			if p.exited() {
				f.stop()
				return nil, 0, fmt.Errorf("%s exited during boot (log %s)", p.name, p.log)
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, 0, fmt.Errorf("serving processes not ready after 60s")
		}
		sleepUntil(time.Now().Add(250 * time.Microsecond))
	}
	return f, time.Since(t0), nil
}

func httpOK(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters are the serving-side /statsz counters a run takes deltas of.
type counters struct {
	hits, misses, evictions, sfHits       uint64
	hedges, hedgeWins, retries, rtQueries uint64
}

func (f *fleetProcs) counters() (counters, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	var out counters
	for _, u := range f.statsURL {
		var st serve.RegistryStats
		if err := getJSON(c, u, &st); err != nil {
			return out, err
		}
		for _, d := range st.Domains {
			out.hits += d.Cache.Hits
			out.misses += d.Cache.Misses
			out.evictions += d.Cache.Evictions
			out.sfHits += d.Cache.SingleflightHits
		}
	}
	if f.router != "" {
		var st fleet.RouterStats
		if err := getJSON(c, f.router, &st); err != nil {
			return out, err
		}
		out.hedges, out.hedgeWins, out.retries, out.rtQueries = st.Hedges, st.HedgeWins, st.Retries, st.Queries
	}
	return out, nil
}

func (a counters) sub(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, evictions: a.evictions - b.evictions,
		sfHits: a.sfHits - b.sfHits,
		hedges: a.hedges - b.hedges, hedgeWins: a.hedgeWins - b.hedgeWins,
		retries: a.retries - b.retries, rtQueries: a.rtQueries - b.rtQueries,
	}
}
