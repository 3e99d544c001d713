package main

import (
	"bufio"
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

// serverArgs is the one lpmserve configuration every workload runs.
var serverArgs = []string{"-bucket", "8", "-shards", "4", "-cache-bytes", "65536"}

const (
	// healthPoll is how often set-up polls /healthz; it bounds the
	// resolution of setup_s.
	healthPoll = 2 * time.Millisecond
	// setupTimeout bounds one start, training included.
	setupTimeout = 60 * time.Second
	// stopTimeout bounds the SIGTERM drain before the run is failed.
	stopTimeout = 20 * time.Second
	// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
	// (100 on every Linux architecture Go supports).
	clockTicks = 100
)

// server is one running lpmserve process.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	logPath  string
	exited   chan struct{} // closed once cmd.Wait returns
	waitErr  error
	client   *http.Client
}

// startServer execs bin over the rule file and returns once /healthz first
// answers 200, with the time that took (exec to first healthy answer).
func startServer(bin, rulesPath, logPath string) (*server, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-rules", rulesPath, "-addr", httpAddr, "-wire-addr", wireAddr}, serverArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// If the benchmark itself is killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{
		cmd: cmd, httpAddr: httpAddr, wireAddr: wireAddr, logPath: logPath,
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	url := "http://" + httpAddr + "/healthz"
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				probe.CloseIdleConnections()
				return s, setup, nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("lpmserve exited during set-up (%v); log %s:\n%s", s.waitErr, logPath, s.logTail())
		case <-time.After(healthPoll):
		}
		if time.Since(start) > setupTimeout {
			s.kill()
			return nil, 0, fmt.Errorf("lpmserve not healthy after %v", setupTimeout)
		}
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// daemon's "drained, shutting down" line in its log.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal lpmserve: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("lpmserve did not drain within %v", stopTimeout)
	}
	if s.waitErr != nil {
		return fmt.Errorf("lpmserve exited uncleanly: %v; log:\n%s", s.waitErr, s.logTail())
	}
	if !strings.Contains(s.logTail(), "drained, shutting down") {
		return fmt.Errorf("lpmserve exited without a clean drain; log:\n%s", s.logTail())
	}
	return nil
}

// kill ends the process without a drain (error paths) and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath) // diagnostics only
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// collect makes the server run a full garbage collection (the pprof heap
// endpoint's gc=1), so the garbage set-up left behind is not collected
// inside a measured phase.
func (s *server) collect() error {
	resp, err := s.client.Get("http://" + s.httpAddr + "/debug/pprof/heap?gc=1")
	if err != nil {
		return fmt.Errorf("force gc: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("force gc: status %d", resp.StatusCode)
	}
	return nil
}

// metrics scrapes /metrics into a name{labels} → value map.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.client.Get("http://" + s.httpAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition: one "name{labels} value"
// sample per line, '#' comments ignored. Keys keep their label set.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// counterDelta is one counter's growth between two scrapes. A counter
// missing from either scrape is an error: the metric set is part of the
// contract this benchmark reads.
func counterDelta(before, after map[string]float64, name string) (float64, error) {
	a, ok1 := before[name]
	b, ok2 := after[name]
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("metrics: counter %s missing", name)
	}
	if b < a {
		return 0, fmt.Errorf("metrics: counter %s went backwards (%g → %g)", name, a, b)
	}
	return b - a, nil
}

// ratioDelta is Δnum/Δden between two scrapes (0 when Δden is 0).
func ratioDelta(before, after map[string]float64, num, den string) (float64, error) {
	n, err := counterDelta(before, after, num)
	if err != nil {
		return 0, err
	}
	d, err := counterDelta(before, after, den)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		return 0, nil
	}
	return n / d, nil
}

// cpu is the process's utime+stime from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	// f[0] is field 3 (state), so utime (field 14) is f[11].
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rssMB is the process's VmRSS in MiB.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(v)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: bad VmRSS line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmRSS line")
}

// cpuTicks is the machine-wide CPU time split from the first line of
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal, ...).
type cpuTicks []float64

// readCPUTicks reads /proc/stat; on a read error it returns nil, which since
// reports as 0.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return nil
	}
	out := make(cpuTicks, len(f)-1)
	for i, x := range f[1:] {
		out[i], _ = strconv.ParseFloat(x, 64) // a malformed field reads as 0
	}
	return out
}

// since is the share of machine CPU time the hypervisor stole since an
// earlier reading: time the benchmark wanted the CPUs and did not get,
// which shows as slower, noisier phases that are not the program's.
func (z cpuTicks) since(a cpuTicks) float64 {
	if len(a) < 8 || len(z) < 8 {
		return 0
	}
	var tot float64
	for i := range a {
		tot += z[i] - a[i]
	}
	if tot <= 0 {
		return 0
	}
	return (z[7] - a[7]) / tot
}
