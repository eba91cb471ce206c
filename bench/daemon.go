package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// deployment is one serving squirreld a workload drives over TCP. The
// benchmark runs it as a child process; the smoke test substitutes an
// in-process daemon.Server so every workload can run under `go test`.
type deployment interface {
	// Addr is the daemon's bound TCP address.
	Addr() string
	// CPUms is the daemon's cumulative user+system CPU time.
	CPUms() (float64, error)
	// PeakRSSMB is the daemon's resident-set high-water mark.
	PeakRSSMB() (float64, error)
	// Stop drains and ends the daemon, and reports anything it logged
	// that a healthy daemon does not.
	Stop() error
}

// launcher starts a fresh deployment for w; tag names its log file.
type launcher func(w *workload, tag string) (deployment, error)

const (
	readyDeadline = 20 * time.Second // spawn → "listening on"
	drainDeadline = 10 * time.Second // SIGTERM → exit, then SIGKILL
)

// buildDaemon compiles cmd/squirreld from the checkout at root into
// binDir and returns the binary's path.
func buildDaemon(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "squirreld")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/squirreld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/squirreld: %v\n%s", err, out)
	}
	return bin, nil
}

// childLauncher runs bin as a child process per deployment, with only
// squirreld's own flags, logging each daemon's stderr under outDir.
func childLauncher(bin, outDir string) launcher {
	return func(w *workload, tag string) (deployment, error) {
		return startChild(bin, w.daemonArgs(), filepath.Join(outDir, "squirreld-"+tag+".log"))
	}
}

// liveChildren tracks every running child so that no exit path —
// failed check, panic, Ctrl-C — leaves a squirreld behind.
var liveChildren = struct {
	sync.Mutex
	m map[*childDaemon]struct{}
}{m: map[*childDaemon]struct{}{}}

// killChildren force-stops whatever is still running. It is the
// last-resort path; orderly runs Stop each deployment themselves.
func killChildren() {
	liveChildren.Lock()
	defer liveChildren.Unlock()
	for c := range liveChildren.m {
		_ = c.cmd.Process.Kill()
		_, _ = c.cmd.Process.Wait()
		delete(liveChildren.m, c)
	}
}

type childDaemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	// logDone closes when the stderr reader hits EOF, which is when the
	// process has exited; bad is owned by that reader until then.
	logDone chan struct{}
	bad     []string
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// benignLog reports whether a stderr line is one a healthy squirreld
// writes over its life: listen, signal receipt, drain, exit. Anything
// else (a drain that timed out, a panic trace) is an error line.
func benignLog(line string) bool {
	if !strings.HasPrefix(line, "squirreld: ") {
		return false
	}
	for _, ok := range []string{" listening on ", " received ", " draining: ", " shutdown complete"} {
		if strings.Contains(line, ok) {
			return true
		}
	}
	return false
}

func startChild(bin string, args []string, logPath string) (*childDaemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// If this process dies without running its cleanup (SIGKILL, a
	// crash in the runtime), the kernel takes the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &childDaemon{cmd: cmd, logPath: logPath, logDone: make(chan struct{})}
	liveChildren.Lock()
	liveChildren.m[c] = struct{}{}
	liveChildren.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(c.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if strings.TrimSpace(line) == "" {
				continue
			}
			if !benignLog(line) {
				c.bad = append(c.bad, line)
				continue
			}
			if m := listenRE.FindStringSubmatch(line); !found && m != nil {
				found = true
				addrCh <- m[1]
			}
		}
	}()

	select {
	case c.addr = <-addrCh:
		return c, nil
	case <-c.logDone:
		_ = c.reap()
		return nil, fmt.Errorf("squirreld exited before listening; see %s", logPath)
	case <-time.After(readyDeadline):
		_ = c.cmd.Process.Kill()
		<-c.logDone
		_ = c.reap()
		return nil, fmt.Errorf("squirreld not listening after %s; see %s", readyDeadline, logPath)
	}
}

func (c *childDaemon) Addr() string { return c.addr }

func (c *childDaemon) CPUms() (float64, error) { return procCPUms(c.cmd.Process.Pid) }

func (c *childDaemon) PeakRSSMB() (float64, error) { return procPeakRSSMB(c.cmd.Process.Pid) }

// reap waits for the exited process (the stderr reader must have
// finished first, as os/exec requires) and forgets it.
func (c *childDaemon) reap() error {
	err := c.cmd.Wait()
	liveChildren.Lock()
	delete(liveChildren.m, c)
	liveChildren.Unlock()
	return err
}

// Stop sends SIGTERM and waits for squirreld's graceful drain; a daemon
// that outlives the drain deadline is killed and reported.
func (c *childDaemon) Stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	killed := false
	select {
	case <-c.logDone:
	case <-time.After(drainDeadline):
		killed = true
		_ = c.cmd.Process.Kill()
		<-c.logDone
	}
	err := c.reap()
	switch {
	case killed:
		return fmt.Errorf("squirreld ignored SIGTERM for %s and was killed; see %s", drainDeadline, c.logPath)
	case err != nil:
		return fmt.Errorf("squirreld exit: %v; see %s", err, c.logPath)
	case len(c.bad) > 0:
		return fmt.Errorf("squirreld logged %d error line(s), first: %q; see %s", len(c.bad), c.bad[0], c.logPath)
	}
	return nil
}
