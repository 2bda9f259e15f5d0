package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"ebcp/internal/metrics"
	"ebcp/internal/serve"
)

// TestMain lets the test binary impersonate the daemon: when the marker
// env var is set, run main() with its args instead of the test suite.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv("EBCPD_ARGS"); ok {
		os.Args = append([]string{"ebcpd"}, strings.Split(spec, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon re-executes this test binary as ebcpd on a free port and
// scrapes the resolved address from its "listening on" line.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	errs *bytes.Buffer // stderr after the address line
	done chan error
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EBCPD_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	d := &daemon{cmd: cmd, errs: &bytes.Buffer{}, done: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "ebcpd: listening on "); ok {
			d.url = "http://" + addr
			break
		}
		fmt.Fprintln(d.errs, line)
	}
	if d.url == "" {
		cmd.Wait()
		t.Fatalf("daemon never announced its address; stderr:\n%s", d.errs)
	}
	// Keep draining stderr so the daemon never blocks on the pipe, and
	// hand Wait's result to whoever asks.
	go func() {
		for sc.Scan() {
			fmt.Fprintln(d.errs, sc.Text())
		}
		d.done <- cmd.Wait()
	}()
	return d
}

func (d *daemon) metrics(t *testing.T) serve.StatsV1 {
	t.Helper()
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st, err := serve.DecodeStatsV1(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonSmoke is the end-to-end contract the CI smoke step relies
// on: boot, serve a strictly-valid report, prove the second identical
// POST is a cache hit, and exit 0 on SIGTERM without dropping anything.
func TestDaemonSmoke(t *testing.T) {
	d := startDaemon(t, "-workers", "2")

	body := `{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":300000,"measure_insts":200000,"bench_scale":0.05}`
	postOnce := func() string {
		resp, err := http.Post(d.url+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/run = %d, body %s", resp.StatusCode, buf.String())
		}
		return buf.String()
	}

	out1 := postOnce()
	rep, err := metrics.DecodeReportV1(strings.NewReader(out1))
	if err != nil {
		t.Fatalf("response is not a strict ebcp.report/v1: %v", err)
	}
	if rep.Tool != "ebcpd" || len(rep.Grids) != 1 || rep.Grids[0].NACells != 0 {
		t.Fatalf("unexpected report: tool=%q grids=%d", rep.Tool, len(rep.Grids))
	}

	st := d.metrics(t)
	if st.Schema != serve.StatsSchemaV1 {
		t.Fatalf("metrics schema = %q, want %q", st.Schema, serve.StatsSchemaV1)
	}
	runsAfterFirst := st.SimRuns
	if runsAfterFirst == 0 {
		t.Fatal("first request simulated nothing")
	}

	if out2 := postOnce(); out2 != out1 {
		t.Error("identical POSTs returned different reports")
	}
	st = d.metrics(t)
	if st.SimRuns != runsAfterFirst {
		t.Errorf("second identical POST re-simulated: %d → %d runs", runsAfterFirst, st.SimRuns)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("second POST did not register cache hits: %+v", st.Cache)
	}
	if st.Completed != 2 || st.Failed != 0 {
		t.Errorf("completed=%d failed=%d, want 2/0", st.Completed, st.Failed)
	}

	// An inline ebcp.spec/v1 request runs through the same path: the
	// daemon compiles the spec against the registry and serves a strict
	// report for it.
	specReq := `{"schema":"ebcp.runreq/v1","warm_insts":300000,"measure_insts":200000,"bench_scale":0.05,"spec":{
	  "schema":"ebcp.spec/v1","id":"mini","title":"Inline smoke","kind":"sim",
	  "benchmarks":["SPECjbb2005"],
	  "report":{"title":"Improvement"},
	  "columns":{"benchmarks":true},
	  "cells":{
	    "base":{"key":"base/{bench}","prefetcher":{"name":"none"}},
	    "x":{"key":"mini/{bench}/x","prefetcher":{"name":"ebcp"},"baseline":"base"}},
	  "rows":[{"rows":[{"label":"EBCP","metric":"improvement_pct","cells":["x"]}]}]}}`
	respSpec, err := http.Post(d.url+"/v1/run", "application/json", strings.NewReader(specReq))
	if err != nil {
		t.Fatal(err)
	}
	var specOut bytes.Buffer
	specOut.ReadFrom(respSpec.Body)
	respSpec.Body.Close()
	if respSpec.StatusCode != http.StatusOK {
		t.Fatalf("inline-spec POST = %d, body %s", respSpec.StatusCode, specOut.String())
	}
	specRep, err := metrics.DecodeReportV1(strings.NewReader(specOut.String()))
	if err != nil {
		t.Fatalf("inline-spec response is not a strict ebcp.report/v1: %v", err)
	}
	if len(specRep.Grids) != 1 || specRep.Grids[0].ID != "mini" || specRep.Grids[0].NACells != 0 {
		t.Fatalf("unexpected inline-spec report: grids=%d", len(specRep.Grids))
	}

	// Healthy before shutdown.
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}

	// SIGTERM drains and exits 0.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Errorf("daemon exited non-zero after SIGTERM: %v\nstderr:\n%s", err, d.errs)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	for _, want := range []string{"ebcpd: draining", "ebcpd: drained, exiting"} {
		if !strings.Contains(d.errs.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, d.errs)
		}
	}
}

// TestDaemonBadFlagsExitOne pins flag validation without ever binding a
// socket.
func TestDaemonBadFlagsExitOne(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative workers", []string{"-workers", "-1"}},
		{"zero queue", []string{"-queue", "0"}},
		{"negative cache", []string{"-cache-mb", "-1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "EBCPD_ARGS="+strings.Join(c.args, "\x1f"))
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("exit = %v, want code 1 (output: %s)", err, out)
			}
		})
	}
}

// TestHTTPServerTimeouts pins the connection timeouts: a client that
// trickles its headers or idles a keep-alive connection is cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout <= 0 || s.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", s.IdleTimeout, idleTimeout)
	}
}
