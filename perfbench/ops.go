package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// An operation of sim-db or artifact runs in a process of its own: the
// benchmark starts itself with -op for each one. So every operation
// starts from the fresh heap a user's single run starts from, and the
// process's peak resident memory is that of one operation.

// opResult is what one operation's process prints: its timings, its
// work (simulated instructions or simulations) and a digest of its
// output, which every operation of a run must repeat.
type opResult struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	Work   float64 `json:"work"`
	Digest string  `json:"digest"`
}

// runOp is the -op mode: one operation, its result as one JSON line.
func runOp(o opts) error {
	op := workloads[o.workload].op
	if op == nil {
		return fmt.Errorf("workload %q has no -op operation", o.workload)
	}
	r, err := op(o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// opSample is one measured operation.
type opSample struct {
	opResult
	maxRSSMB float64
}

// spawnOp runs one operation in a child process and waits for it.
func spawnOp(o opts) (opSample, error) {
	var s opSample
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	cmd := exec.Command(self, "-op", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return s, fmt.Errorf("operation process: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s.opResult); err != nil {
		return s, fmt.Errorf("operation result %q: %w", out, err)
	}
	return s, nil
}

// runOps repeats operations, each in its own process, for the
// measurement window, and reports medians: set-up and operation time,
// work per second and the peak resident memory of one operation.
func runOps(o opts, t *tally) (map[string]metric, error) {
	var setups, walls, rates, rss []float64
	var ref string
	start := time.Now()
	for t.attempted == 0 || time.Since(start) < o.budget() {
		s, err := spawnOp(o)
		if err == nil && ref == "" {
			ref = s.Digest
		}
		if err == nil && s.Digest != ref {
			err = errors.New("output differs from the run's first operation")
		}
		t.note(err)
		if err != nil {
			continue
		}
		setups = append(setups, s.SetupS)
		walls = append(walls, s.WallS)
		rates = append(rates, s.Work/s.WallS)
		rss = append(rss, s.maxRSSMB)
	}
	if len(walls) == 0 {
		return nil, errors.New("no operation succeeded")
	}
	report(o.workload+" operation", walls, "s")
	return map[string]metric{
		"setup_s":    {median(setups), "s"},
		"wall_s":     {median(walls), "s"},
		"work_per_s": {median(rates), "1/s"},
		"max_rss_mb": {median(rss), "MB"},
	}, nil
}
