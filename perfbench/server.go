package main

import (
	"bufio"
	"encoding/json"
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

// sdbd is one running server process.
type sdbd struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:<port>
	done chan struct{} // closed once the process has exited and been reaped
}

// setupTimeout bounds one launch: load, normalise, STR, GH and pack of the
// paper-scale tables take a few seconds, WAL recovery of the live table less.
const setupTimeout = 90 * time.Second

// startSDBD launches sdbd with its default flags on a free port, preloading
// dataDir and, when walDir is set, logging live tables there. It returns once
// /healthz answers with every table loaded, and the time that took.
func startSDBD(bin, dataDir, walDir, logPath string, tables int) (*sdbd, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:" + port, "-load", dataDir}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// sdbd dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start sdbd: %w", err)
	}
	s := &sdbd{cmd: cmd, base: "http://127.0.0.1:" + port, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once the benchmark stops it
		logf.Close()
		close(s.done)
	}()
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("sdbd exited during setup (log %s)", logPath)
		default:
		}
		if n, err := healthyTables(hc, s.base); err == nil && n == tables {
			return s, time.Since(start), nil
		}
		if time.Since(start) > setupTimeout {
			s.kill()
			return nil, 0, fmt.Errorf("sdbd not healthy after %s (log %s)", setupTimeout, logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func healthyTables(hc *http.Client, base string) (int, error) {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Tables int `json:"tables"`
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.Tables, nil
}

// stop asks sdbd to shut down gracefully and waits for it to exit, killing
// it if it has not within the grace period.
func (s *sdbd) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *sdbd) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.done
}

// procStatusKB reads a "<key>: <n> kB" line of /proc/<pid>/status.
func (s *sdbd) procStatusKB(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("/proc status: no %s", key)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds is the process's user plus system CPU time so far.
func (s *sdbd) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("/proc stat: malformed")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("/proc stat: short")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// scrape reads /metrics into a map from series (name plus label set, as
// printed) to value.
func scrape(hc *http.Client, base string) (counters, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := counters{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// counters is one /metrics scrape.
type counters map[string]float64

// delta returns after minus before, series by series.
func (after counters) delta(before counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio divides two series, returning 0 when the denominator is 0 (the layer
// did no such work in the phase).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
