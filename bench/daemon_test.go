package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wireclient"
)

func TestBenignLog(t *testing.T) {
	for line, want := range map[string]bool{
		"squirreld: 2026/09/27 16:00:00 squirreld dev listening on 127.0.0.1:40123 (proto v2, max 64 conns)": true,
		"squirreld: 2026/09/27 16:00:01 received terminated; draining (budget 30s, signal again to force)":   true,
		"squirreld: 2026/09/27 16:00:01 draining: waiting for in-flight requests":                            true,
		"squirreld: 2026/09/27 16:00:01 shutdown complete":                                                   true,
		"squirreld: 2026/09/27 16:00:31 drain incomplete: context deadline exceeded":                         false,
		"panic: runtime error: index out of range [3] with length 3":                                         false,
		"goroutine 1 [running]:": false,
	} {
		if got := benignLog(line); got != want {
			t.Errorf("benignLog(%q) = %v, want %v", line, got, want)
		}
	}
}

// TestChildLifecycle builds the real squirreld and takes one child
// through its whole life: ephemeral port parsed from the log, a
// handshake, CPU and RSS read from /proc, SIGTERM drain, clean log.
func TestChildLifecycle(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildDaemon(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("control_rpc")
	dep, err := childLauncher(bin, dir)(w, "lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	child := dep.(*childDaemon)
	pid := child.cmd.Process.Pid
	if !strings.HasPrefix(dep.Addr(), "127.0.0.1:") || strings.HasSuffix(dep.Addr(), ":0") {
		t.Errorf("bound address %q is not an ephemeral loopback port", dep.Addr())
	}
	c, err := wireclient.Dial(wireclient.Options{Addr: dep.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := c.Info(); err != nil || len(info.Images) != w.images {
		t.Errorf("info: %d images, %v", len(info.Images), err)
	}
	_ = c.Close()
	if _, err := dep.CPUms(); err != nil {
		t.Error(err)
	}
	if rss, err := dep.PeakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peak rss = %g, %v", rss, err)
	}
	if err := dep.Stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid), "stat")); err == nil {
		t.Errorf("squirreld pid %d is still there after Stop", pid)
	}
	liveChildren.Lock()
	left := len(liveChildren.m)
	liveChildren.Unlock()
	if left != 0 {
		t.Errorf("%d children still registered after Stop", left)
	}
	log, err := os.ReadFile(child.logPath)
	if err != nil || !strings.Contains(string(log), "shutdown complete") {
		t.Errorf("daemon log %q lacks the drain: %v", log, err)
	}
}

// TestChildThatNeverListens covers the failure paths of startChild: a
// process that exits at once, with an error line on stderr.
func TestChildThatNeverListens(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "notadaemon")
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho 'squirreld: cannot listen' >&2\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := startChild(script, nil, filepath.Join(dir, "log")); err == nil {
		t.Fatal("a child that exits before listening was accepted")
	}
	liveChildren.Lock()
	left := len(liveChildren.m)
	liveChildren.Unlock()
	if left != 0 {
		t.Errorf("%d children still registered after a failed start", left)
	}
}
