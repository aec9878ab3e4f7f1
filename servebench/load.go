package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"websyn/internal/loadtest"
	"websyn/internal/rng"
	"websyn/internal/serve"
)

// ridHeader carries the benchmark's request id to the traced server, so
// server-side spans join the client span of the same request.
const ridHeader = "X-Bench-Rid"

// tally accumulates a generator's measurements. One goroutine owns it
// at a time; merge combines per-worker tallies once the workers stop.
type tally struct {
	sent, failed int
	lat          []time.Duration // measured requests (tail: batches)
	at           []time.Duration // when each lat sample was due (closed loop: sent), from run start
	late         []time.Duration // open loop: wake-up lateness of requests picked up before due
	queued       int             // open loop: requests picked up after due (every connection was busy)
	items        int             // items answered by measured requests
	respBytes    int64
	firstErr     string

	// Quality, per distinct query (cache key).
	recalled map[string]bool
	class    map[string]string

	// Engine outcomes over uncached items.
	uncached                   int
	segUS, fuzzyUS, totalUS    float64
	spans, corrected           int
	v2Items, predicates        int
	repeats, measuredItemsSeen int
}

func newTally() *tally {
	return &tally{recalled: map[string]bool{}, class: map[string]string{}}
}

func (t *tally) sample(at, lat time.Duration) {
	t.at = append(t.at, at)
	t.lat = append(t.lat, lat)
}

// inOrder returns the latency samples in send order.
func (t *tally) inOrder() []time.Duration {
	idx := make([]int, len(t.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.at[idx[a]] < t.at[idx[b]] })
	out := make([]time.Duration, len(idx))
	for i, j := range idx {
		out[i] = t.lat[j]
	}
	return out
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	t.at = append(t.at, o.at...)
	t.late = append(t.late, o.late...)
	t.queued += o.queued
	t.items += o.items
	t.respBytes += o.respBytes
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	for k, v := range o.recalled {
		t.recalled[k] = t.recalled[k] || v
		t.class[k] = o.class[k]
	}
	t.uncached += o.uncached
	t.segUS += o.segUS
	t.fuzzyUS += o.fuzzyUS
	t.totalUS += o.totalUS
	t.spans += o.spans
	t.corrected += o.corrected
	t.v2Items += o.v2Items
	t.predicates += o.predicates
}

// recall is the share of distinct labelled queries whose expected
// entity was among the matches, optionally restricted to one class.
func (t *tally) recall(class string) (float64, int) {
	hit, n := 0, 0
	for k, ok := range t.recalled {
		c := t.class[k]
		if c == loadtest.ClassNoise || (class != "" && c != class) {
			continue
		}
		n++
		if ok {
			hit++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(hit) / float64(n), n
}

// noiseFP is the share of distinct noise queries that matched anything.
func (t *tally) noiseFP() (float64, int) {
	hit, n := 0, 0
	for k, matched := range t.recalled {
		if t.class[k] == loadtest.ClassNoise {
			n++
			if matched {
				hit++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(hit) / float64(n), n
}

// check decodes a 200 body and validates it against the items sent:
// strict JSON into the API's own response type, one result per item,
// no per-item errors, and a frozen v1 shape (no attributes, no
// residual). It then scores each item for recall and collects the
// engine's Timing over items the cache did not answer.
func (t *tally) check(body []byte, items []query, v2 bool) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r serve.V1Response
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("malformed body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after body")
	}
	if r.Count != len(items) || len(r.Results) != len(items) {
		return fmt.Errorf("count %d, %d results for %d items", r.Count, len(r.Results), len(items))
	}
	for i, res := range r.Results {
		if res.Error != "" {
			return fmt.Errorf("item %q: %s", items[i].text, res.Error)
		}
		if res.Response == nil {
			return fmt.Errorf("item %q: empty result", items[i].text)
		}
		if !v2 && (len(res.Attributes) > 0 || res.Residual != "") {
			return fmt.Errorf("item %q: v1 response carries attributes or residual", items[i].text)
		}
	}
	for i, res := range r.Results {
		t.score(&items[i], res)
	}
	return nil
}

func (t *tally) score(q *query, res serve.V1Result) {
	k := q.key()
	matched := len(res.Matches) > 0
	if q.class != loadtest.ClassNoise {
		matched = false
		for _, m := range res.Matches {
			d := m.Domain
			if d == "" {
				d = res.Domain
			}
			if d == "" {
				d = q.domain
			}
			for _, w := range q.wants {
				if w.domain == d && w.id == m.EntityID {
					matched = true
				}
			}
		}
	}
	if _, seen := t.recalled[k]; !seen {
		t.recalled[k] = matched
		t.class[k] = q.class
	}
	if q.v2 {
		t.v2Items++
		t.predicates += len(res.Attributes)
	}
	if !res.Cached {
		t.uncached++
		t.segUS += res.Timing.SegmentMicros
		t.fuzzyUS += res.Timing.FuzzyMicros
		t.totalUS += res.Timing.TotalMicros
		t.spans += len(res.Matches)
		for _, m := range res.Matches {
			if m.Corrected {
				t.corrected++
			}
		}
	}
}

// post sends one request body and returns the response body, failing
// on transport errors and non-200 statuses.
func post(c *http.Client, url string, body []byte, rid int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid >= 0 {
		req.Header.Set(ridHeader, strconv.FormatInt(rid, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	return b, nil
}

func endpoint(base string, v2 bool) string {
	if v2 {
		return base + "/v2/match"
	}
	return base + "/v1/match"
}

// newClient returns an HTTP client that holds at most conns
// connections to the target.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// schedule is an open-loop arrival plan: Poisson arrivals at rate per
// second, each request drawn from the head stream.
type schedule struct {
	at    []time.Duration // due time, from run start
	query []int           // pool index
}

func newSchedule(p *pool, seed uint64, rate float64, total time.Duration) schedule {
	n := int(rate*total.Seconds()) + 1
	src := rng.New(seed ^ 0x6172726976)
	var s schedule
	s.query = p.headStream(seed, n+n/8)
	var t time.Duration
	for len(s.at) < len(s.query) {
		t += time.Duration(-math.Log(1-src.Float64()) / rate * float64(time.Second))
		if t >= total {
			break
		}
		s.at = append(s.at, t)
	}
	s.query = s.query[:len(s.at)]
	return s
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer wakes sub-millisecond sleeps up to a millisecond late when the
// runtime is idle, which would show as generator lateness; the kernel's
// high-resolution timer keeps it to tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// spanSink receives the generator's client spans in a traced run.
type spanSink interface {
	client(rid int64, due, sent, done time.Time)
}

// openLoop replays the schedule with conns workers, each owning one
// connection. A worker takes the next due request, sleeps until its due
// time if it is early, and sends it; a stall delays later sends, and
// because latency is timed from the due time, that wait is counted
// (no coordinated omission). Every body is kept and checked after the
// run, so checking never holds a connection. Requests due in
// [from, to) are measured.
func openLoop(c *http.Client, base string, p *pool, s schedule, conns int, from, to time.Duration, sink spanSink) *tally {
	type reply struct {
		i    int
		body []byte
		err  error
	}
	n := len(s.at)
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n) // -1: picked up after due
	size := make([]int, n)
	failed := make([]bool, n)
	// Bodies are checked after the run, so checking never competes with
	// the sends or the server for CPU while latency is measured.
	replies := make([]reply, n)
	out := newTally()

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(s.at[i])
				early := time.Now().Before(due)
				sleepUntil(due)
				rid := int64(-1)
				if sink != nil {
					rid = int64(i)
				}
				sent := time.Now()
				body, err := post(c, endpoint(base, p.queries[s.query[i]].v2), p.bodies[s.query[i]], rid)
				done := time.Now()
				lat[i], late[i], size[i] = done.Sub(due), -1, len(body)
				if early {
					late[i] = sent.Sub(due)
				}
				if sink != nil && s.at[i] >= from && s.at[i] < to {
					sink.client(rid, due, sent, done)
				}
				replies[i] = reply{i, body, err}
			}
		}()
	}
	wg.Wait()
	for _, r := range replies {
		err := r.err
		if err == nil {
			q := p.queries[s.query[r.i]]
			err = out.check(r.body, []query{q}, q.v2)
		}
		if err != nil {
			out.fail(err)
			failed[r.i] = true
		}
	}

	out.sent = n
	seen := make([]bool, len(p.queries))
	for i, qi := range s.query {
		measured := s.at[i] >= from && s.at[i] < to
		if measured && seen[qi] {
			out.repeats++
		}
		seen[qi] = true
		if !measured {
			continue
		}
		if late[i] >= 0 { // a request picked up late waited for a connection, not the generator
			out.late = append(out.late, late[i])
		} else {
			out.queued++
		}
		if failed[i] {
			out.sample(s.at[i], failedLatency)
			continue
		}
		out.sample(s.at[i], lat[i])
		out.items++
		out.respBytes += int64(size[i])
	}
	out.measuredItemsSeen = len(out.lat)
	return out
}

// failedLatency stands in for a failed request's latency: it misses
// every latency limit.
const failedLatency = time.Hour

// batchBody is a /v1/match or /v2/match batch. Pinned items carry their
// own domain; the rest take the batch-level federated fan-out.
type batchBody struct {
	Queries []batchItem `json:"queries"`
	Domains []string    `json:"domains,omitempty"`
}

type batchItem struct {
	Query  string `json:"query"`
	Domain string `json:"domain,omitempty"`
}

func encodeBatch(items []query) []byte {
	b := batchBody{Queries: make([]batchItem, len(items))}
	for i, q := range items {
		b.Queries[i] = batchItem{Query: q.text, Domain: q.domain}
		if q.fed {
			b.Domains = []string{"*"}
		}
	}
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // strings always marshal
	}
	return out
}

// closedLoop runs clients that each send fixed-size batches of
// never-repeating queries back to back: attribute queries collect into
// /v2/match batches, the rest into /v1/match batches. It stops sending
// at run end; batches sent in [from, end) are measured, each timed as
// one round trip. Returns the tally and the measured wall time.
func closedLoop(c *http.Client, base string, ts *tailStream, batch, clients int, from, end time.Duration, sink spanSink) (*tally, time.Duration, error) {
	var next, rids atomic.Int64
	tallies := make([]*tally, clients)
	lastDone := make([]time.Time, clients)
	keys := make([][]uint64, clients) // hashed cache keys of measured items
	seed := maphash.MakeSeed()
	var wg sync.WaitGroup
	start := time.Now()
	var exhausted atomic.Bool
	for w := 0; w < clients; w++ {
		t := newTally()
		tallies[w] = t
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bufs := [2][]query{}
			for time.Since(start) < end {
				k := int(next.Add(1) - 1)
				if k >= ts.capacity() {
					exhausted.Store(true)
					return
				}
				q := ts.at(k)
				v := 0
				if q.v2 {
					v = 1
				}
				bufs[v] = append(bufs[v], q)
				if len(bufs[v]) < batch {
					continue
				}
				items := bufs[v]
				bufs[v] = nil
				rid := int64(-1)
				if sink != nil {
					rid = rids.Add(1)
				}
				sent := time.Now()
				measured := sent.Sub(start) >= from
				body, err := post(c, endpoint(base, v == 1), encodeBatch(items), rid)
				done := time.Now()
				t.sent++
				if err == nil {
					err = t.check(body, items, v == 1)
				}
				if !measured {
					if err != nil {
						t.fail(err)
					}
					continue
				}
				if sink != nil {
					sink.client(rid, sent, sent, done)
				}
				if err != nil {
					t.fail(err)
					t.sample(sent.Sub(start), failedLatency)
					continue
				}
				for i := range items {
					keys[w] = append(keys[w], maphash.String(seed, items[i].key()))
				}
				t.sample(sent.Sub(start), done.Sub(sent))
				t.items += len(items)
				t.respBytes += int64(len(body))
				lastDone[w] = done
			}
		}(w)
	}
	wg.Wait()
	if exhausted.Load() {
		return nil, 0, fmt.Errorf("tail stream exhausted after %d queries", ts.capacity())
	}
	out := newTally()
	last := start.Add(from)
	for w, t := range tallies {
		out.merge(t)
		if lastDone[w].After(last) {
			last = lastDone[w]
		}
	}
	var all []uint64
	for _, k := range keys {
		all = append(all, k...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			out.repeats++
		}
	}
	out.measuredItemsSeen = len(all)
	return out, last.Sub(start.Add(from)), nil
}
