package main

import (
	"bufio"
	"bytes"
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

// maxConns bounds the load: the machine has two cores, and client,
// server and kernel share them. Every request of a run goes through one
// transport capped at two connections.
const maxConns = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			Proxy:               nil,
		},
		Timeout: 60 * time.Second,
	}
}

// simqd is one running server process.
type simqd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// startSimqd starts the server binary on a free loopback port and
// waits until /healthz answers. The server's stderr goes to logPath.
func startSimqd(client *http.Client, bin, logPath string, args ...string) (*simqd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// If the benchmark dies without stopping the server, the kernel
	// kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start simqd: %w", err)
	}
	s := &simqd{cmd: cmd, base: "http://" + addr, log: log, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()
	if err := s.waitHealthy(client, 120*time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *simqd) waitHealthy(client *http.Client, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("simqd exited during start-up (see %s)", s.log.Name())
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("simqd not healthy after %s", patience)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *simqd) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	s.log.Close()
}

// stop asks for a graceful shutdown and waits; SIGKILL after 10s.
func (s *simqd) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Signal(syscall.SIGKILL)
		<-s.done
	}
	s.log.Close()
}

// statusError is a non-200 answer.
type statusError struct {
	code int
	body string
}

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// post sends one JSON body and returns the whole response body.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, statusError{resp.StatusCode, strings.TrimSpace(string(out))}
	}
	return out, nil
}

// scrape reads /metrics into a map from series text (name plus labels)
// to value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError{resp.StatusCode, "/metrics"}
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// delta is after[key] - before[key]; series absent on either side
// count as zero.
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}
