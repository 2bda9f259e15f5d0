package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ebcp/internal/metrics"
	"ebcp/internal/serve"
)

const (
	// clients is the closed-loop client count. With one, at most one miss
	// computes at a time, so the daemon's peak memory and the request rate
	// repeat from run to run; with two, overlapping misses on a 2-vCPU host
	// spread both by about 20% between runs.
	clients = 1
	// daemonStarts is how many times a run starts the daemon to time its
	// set-up; the last instance serves the load.
	daemonStarts = 15
	// hitBody is the canonical table1 request every hit repeats.
	hitBody = `{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":300000,"measure_insts":200000,"bench_scale":0.05}`
	// The daemon's cache budget: small enough that the miss stream
	// reaches steady-state eviction, and so steady memory, within the
	// first seconds of a run (a cell costs about 1.7 KB), large enough
	// to keep the hit request's cells, which every few requests refresh.
	daemonCacheMB = "2"
)

// missBody is request i's miss: a warm window no other request uses, so
// its cells are computed and inserted.
func missBody(i int64) []byte {
	return []byte(fmt.Sprintf(`{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":%d,"measure_insts":200000,"bench_scale":0.05}`, 300_001+i))
}

// isHit places one miss at a seeded position in every block of four
// requests: a 3:1 hit:miss mix whose order depends on the seed.
func isHit(seed, i int64) bool {
	return uint64(i%4) != splitmix(uint64(seed)^uint64(i/4))%4
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// daemon is one running ebcpd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
}

var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
}

// startDaemon starts ebcpd on a free loopback port and returns once
// /healthz answers 200, with the time that took.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	// One request executes at a time, on one processor, as the
	// benchmark's own work does (see main).
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-mb", daemonCacheMB, "-workers", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ebcpd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "ebcpd: listening on "); ok {
				addr <- a
				continue
			}
			if line != "ebcpd: draining" && line != "ebcpd: drained, exiting" {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		_, err := d.stop()
		return nil, 0, fmt.Errorf("ebcpd exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		_, err := d.stop()
		return nil, 0, fmt.Errorf("ebcpd did not report its address: %v", err)
	}
	for {
		resp, err := httpClient.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			_, stopErr := d.stop()
			return nil, 0, fmt.Errorf("ebcpd never became healthy: %v (stop: %v)", err, stopErr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its peak resident memory. A daemon that does not drain in 30 s is
// killed.
func (d *daemon) stop() (maxRSSMB float64, err error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // Wait below reports the outcome
		<-d.logDone
	}
	err = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return maxRSSMB, fmt.Errorf("ebcpd exit: %w", err)
	}
	return maxRSSMB, nil
}

// post sends one request body and returns the status and response.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := httpClient.Post(d.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (d *daemon) stats() (serve.StatsV1, error) {
	resp, err := httpClient.Get(d.base + "/metrics")
	if err != nil {
		return serve.StatsV1{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.StatsV1{}, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return serve.DecodeStatsV1(resp.Body)
}

// served is one request of the load.
type served struct {
	hit  bool
	end  time.Time
	lat  time.Duration
	body []byte // misses only, decoded after the load
	err  error
}

// serveRun is one serving load: the daemon, its warmed hit response and
// the request counter shared by every load phase.
type serveRun struct {
	o        opts
	d        *daemon
	setups   []float64
	hitResp  []byte
	baseRuns uint64 // simulations before the load
	perMiss  uint64 // simulations one miss runs
	next     atomic.Int64
}

// startServe times daemonStarts daemon start-ups, keeps the last one and
// warms its cache with the hit request.
func startServe(o opts) (*serveRun, error) {
	if o.ebcpd == "" {
		return nil, errors.New("the serving load needs --ebcpd")
	}
	r := &serveRun{o: o}
	for i := 0; i < daemonStarts; i++ {
		d, setup, err := startDaemon(o.ebcpd)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup.Seconds())
		if i < daemonStarts-1 {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
			continue
		}
		r.d = d
	}
	code, body, err := r.d.post([]byte(hitBody))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up request answered %d: %s", code, body)
	}
	if err == nil {
		err = checkReport(body)
	}
	var st serve.StatsV1
	if err == nil {
		st, err = r.d.stats()
	}
	if err == nil && st.SimRuns == 0 {
		err = errors.New("warm-up request ran no simulation")
	}
	if err != nil {
		_, _ = r.d.stop() // the warm-up error is the one to report
		return nil, err
	}
	r.hitResp, r.baseRuns, r.perMiss = body, st.SimRuns, st.SimRuns
	return r, nil
}

// checkReport strictly decodes a response and requires every cell.
func checkReport(body []byte) error {
	doc, err := metrics.DecodeReportV1(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if len(doc.Grids) != 1 || doc.Grids[0].NACells != 0 {
		return fmt.Errorf("response has %d grids, first with n/a cells", len(doc.Grids))
	}
	return nil
}

// load runs the closed-loop clients for the window.
func (r *serveRun) load(window time.Duration) []served {
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []served
			for time.Now().Before(deadline) {
				local = append(local, r.do(r.next.Add(1)-1))
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

func (r *serveRun) do(i int64) served {
	s := served{hit: isHit(r.o.seed, i)}
	body := []byte(hitBody)
	if !s.hit {
		body = missBody(i)
	}
	t := time.Now()
	code, data, err := r.d.post(body)
	s.end = time.Now()
	s.lat = s.end.Sub(t)
	switch {
	case err != nil:
		s.err = err
	case code != http.StatusOK:
		s.err = fmt.Errorf("request answered %d: %s", code, data)
	case s.hit && !bytes.Equal(data, r.hitResp):
		s.err = errors.New("hit response differs from the first response for its body")
	case !s.hit:
		s.body = data
	}
	return s
}

// finish checks the load's miss responses and the daemon's accounting,
// stops the daemon and returns its final counters and peak memory.
func (r *serveRun) finish(all []served, t *tally) (serve.StatsV1, float64, error) {
	misses := uint64(0)
	for i := range all {
		s := &all[i]
		if s.err == nil && !s.hit {
			misses++
			s.err = checkReport(s.body)
			s.body = nil
		}
		t.note(s.err)
	}
	st, err := r.d.stats()
	if err == nil {
		if got, want := st.SimRuns-r.baseRuns, misses*r.perMiss; got != want {
			err = fmt.Errorf("daemon ran %d simulations for %d misses, want %d", got, misses, want)
		} else if st.Rejected != 0 || st.Failed != 0 {
			err = fmt.Errorf("daemon counted %d rejected and %d failed requests", st.Rejected, st.Failed)
		}
	}
	t.note(err)
	rss, stopErr := r.d.stop()
	t.note(stopErr)
	return st, rss, errors.Join(err, stopErr)
}

// latencies splits the successful requests' latencies by class, in ms.
func latencies(all []served) (hits, misses []float64) {
	for _, s := range all {
		if s.err != nil {
			continue
		}
		ms := float64(s.lat) / 1e6
		if s.hit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	return hits, misses
}

// serveLayer measures the serving layer, as part of the artifact
// workload's traced pass: it runs the hit/miss load against a fresh
// daemon for the window, reads the daemon's counters and times the
// serving layer's leaf calls standalone.
func serveLayer(o opts, window time.Duration, t *tally, ms map[string]metric) error {
	r, err := startServe(o)
	if err != nil {
		return err
	}
	all := r.load(window)
	st, _, _ := r.finish(all, t) // failures are in the tally

	hits, misses := latencies(all)
	ms["serve.hit_p50_ms"] = metric{median(hits), "ms"}
	ms["serve.hit_p99_ms"] = metric{quantile(hits, 0.99), "ms"}
	ms["serve.miss_p50_ms"] = metric{median(misses), "ms"}
	ms["serve.miss_p90_ms"] = metric{quantile(misses, 0.90), "ms"}
	ms["serve.queue_wait_us_p50"] = metric{histQuantile(st.QueueWaitUS, 0.5), "us"}
	ms["serve.request_us_p50"] = metric{histQuantile(st.RequestUS, 0.5), "us"}
	ms["serve.cache_hit_ratio"] = metric{st.Cache.HitRatio, "ratio"}
	ms["serve.cache_joins"] = metric{float64(st.Cache.Joins), "count"}
	ms["serve.sim_runs"] = metric{float64(st.SimRuns), "count"}
	ms["serve.rejected"] = metric{float64(st.Rejected), "count"}
	return serveProbes(r.hitResp, ms)
}

// serveProbes times the serving layer's leaf calls standalone: request
// decoding, a cache hit and report rendering.
func serveProbes(hitResp []byte, ms map[string]metric) error {
	bodies := [][]byte{[]byte(hitBody)}
	for i := int64(0); i < 63; i++ {
		bodies = append(bodies, missBody(i))
	}
	const decodes = 4096
	t0 := time.Now()
	for i := 0; i < decodes; i++ {
		if _, err := serve.DecodeRunRequest(bytes.NewReader(bodies[i%len(bodies)])); err != nil {
			return err
		}
	}
	ms["serve.decode_us"] = metric{float64(time.Since(t0)) / 1e3 / decodes, "us"}

	c := serve.NewCache(1 << 20)
	compute := func() (any, int) { return hitResp, len(hitResp) }
	c.Do("probe", compute)
	const lookups = 1 << 18
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		c.Do("probe", compute)
	}
	ms["serve.cache_do_hit_ns"] = metric{float64(time.Since(t0)) / lookups, "ns"}

	doc, err := metrics.DecodeReportV1(bytes.NewReader(hitResp))
	if err != nil {
		return err
	}
	const renders = 1024
	var buf bytes.Buffer
	t0 = time.Now()
	for i := 0; i < renders; i++ {
		buf.Reset()
		if err := metrics.WriteJSON(&buf, doc); err != nil {
			return err
		}
	}
	ms["serve.render_us"] = metric{float64(time.Since(t0)) / 1e3 / renders, "us"}
	if !bytes.Equal(buf.Bytes(), hitResp) {
		return errors.New("re-rendered report differs from the daemon's response")
	}
	return nil
}

// histQuantile interpolates a quantile inside a log2-bucket histogram.
func histQuantile(h metrics.Histogram, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, hi := metrics.BucketBounds(i)
			return float64(lo) + float64(hi-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	lo, _ := metrics.BucketBounds(len(h.Buckets) - 1)
	return float64(lo)
}
