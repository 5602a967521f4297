package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one cmd/serve child process on loopback.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs bin with the shared configuration over dataDir.
func startServer(bin, dataDir string) (*serverProc, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dataDir, "serve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, serverFlags(addr, dataDir)...)
	cmd.Stdout = log
	cmd.Stderr = log
	// The server must not outlive e2ebench, however e2ebench ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // a killed server exits non-zero; its log says why
		close(s.done)
	}()
	return s, nil
}

// exited reports whether the process has ended.
func (s *serverProc) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop asks the server to shut down gracefully, kills it if it has not
// exited within the timeout, and waits for it either way.
func (s *serverProc) stop(timeout time.Duration) {
	if !s.exited() {
		s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exiting is fine
		select {
		case <-s.done:
		case <-time.After(timeout):
			s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
			<-s.done
		}
	}
	s.log.Close()
}

// kill ends the server at once and waits for it.
func (s *serverProc) kill() {
	if !s.exited() {
		s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-s.done
	}
	s.log.Close()
}
