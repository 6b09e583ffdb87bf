package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// buildConvoyd builds repro/cmd/convoyd once per run, before anything is
// timed.
func buildConvoyd(ctx *runCtx) (string, time.Duration, error) {
	out := filepath.Join(ctx.buildDir, "convoyd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "repro/cmd/convoyd")
	cmd.Dir = ctx.srcDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build convoyd: %w\n%s", err, stderr.String())
	}
	return out, time.Since(start), nil
}

// child is a convoyd process under test. Its CPU and memory are the
// server's alone: the load generator lives in the benchmark process.
type child struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	// ready is spawn → first 200 from /healthz; the listener opens only
	// after recovery and archive backfill finish.
	ready time.Duration
	done  bool
}

// startChild spawns convoyd on a free loopback port and waits until it
// answers /healthz.
func startChild(bin string, args ...string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	c := &child{base: "http://" + addr}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stderr = &c.stderr
	// The child must not outlive the benchmark, however the benchmark ends.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			c.kill()
			return nil, fmt.Errorf("convoyd not healthy after 60s: %s", c.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	c.ready = time.Since(start)
	probe.CloseIdleConnections()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill ends the child at once and waits for it; safe to call after stop.
func (c *child) kill() {
	if c == nil || c.done {
		return
	}
	c.done = true
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// stop sends SIGTERM, waits for the graceful shutdown (final persist,
// archive close) and returns how long it took.
func (c *child) stop() (time.Duration, error) {
	if c.done {
		return 0, errors.New("child already stopped")
	}
	c.done = true
	start := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.cmd.Process.Kill()
		c.cmd.Wait()
		return 0, err
	}
	if err := c.cmd.Wait(); err != nil {
		return time.Since(start), fmt.Errorf("convoyd exit: %w: %s", err, c.stderr.String())
	}
	return time.Since(start), nil
}

// cpuTime reads the live child's user+system CPU time from /proc.
func (c *child) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 per second on
	// every Linux the Go runtime supports).
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	fs := strings.Fields(rest)
	if len(fs) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", data)
	}
	ut, err1 := strconv.ParseInt(fs[11], 10, 64)
	st, err2 := strconv.ParseInt(fs[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line: %q", data)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

func (c *child) stats(client *http.Client) (server.Stats, error) {
	var st server.Stats
	resp, err := client.Get(c.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// oneConn is an HTTP client that keeps to a single connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}
