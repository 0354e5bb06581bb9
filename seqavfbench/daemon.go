package main

// The server under test: a real seqavfd process on loopback, with
// default flags and its own artifact directory. Its cost is read from
// outside: CPU time and peak RSS from /proc/<pid>, heap allocation from
// the TotalAlloc line of /debug/pprof/heap?debug=1.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// startDaemon execs bin on a free loopback port with artifacts in dir and
// waits until /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", addr, "-artifacts", dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		// One client, one connection, kept alive across the run.
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		exited: make(chan struct{}),
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("seqavfd exited before it became healthy: %v", d.err)
		default:
		}
		if status, _, err := d.get("/healthz"); err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("seqavfd did not become healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop sends SIGTERM, so the server drains, and waits for it to exit;
// after 20s it is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends body and returns the status and the response body.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// totalAlloc returns the server's cumulative heap allocation in bytes;
// with gc it first forces a collection, so the phase that follows starts
// from a quiet heap.
func (d *daemon) totalAlloc(gc bool) (uint64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	status, b, err := d.get(path)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d", path, status)
	}
	const key = "# TotalAlloc = "
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("%s: no TotalAlloc line", path)
	}
	line := b[i+len(key):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	return strconv.ParseUint(string(line), 10, 64)
}

// cpuSeconds returns the server's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// stealTicks returns the steal time of all the guest's CPUs so far, in
// clock ticks: time the hypervisor spent running something else while
// this guest had work. It is 0 on bare metal.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseInt(fields[8], 10, 64)
}

// peakRSSMiB returns the server's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
