package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields:
	// utime=1234 and stime=567 ticks are fields 14 and 15.
	stat := "4242 (squirreld (v2) x) S 1 4242 4242 0 -1 4194560 900 0 1 0 1234 567 0 0 20 0 9 0 100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ms, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+567) * 1000 / clockTicksPerSec; ms != want {
		t.Errorf("cpu = %g ms, want %g", ms, want)
	}
	for _, bad := range []string{"", "1 comm S 1", "1 (x) S 1 2 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tsquirreld\nVmPeak:\t 1234567 kB\nVmHWM:\t   30720 kB\nVmRSS:\t   20480 kB\n"
	mb, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if mb != 30 {
		t.Errorf("VmHWM = %g MB, want 30", mb)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseStatusHWM(bad); err == nil {
			t.Errorf("parseStatusHWM(%q) succeeded", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	cpu, err := procCPUms(os.Getpid())
	if err != nil || cpu < 0 {
		t.Errorf("own cpu = %g ms, %v", cpu, err)
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("own peak rss = %g MB, %v", rss, err)
	}
}

func TestParseStatSteal(t *testing.T) {
	stat := "cpu  71249 0 11273 208936 1925 0 1685 1898 0 0\ncpu0 35000 0 5600 104000 900 0 800 950 0 0\n"
	ms, err := parseStatSteal(stat)
	if err != nil || ms != 18980 {
		t.Errorf("steal = %g ms, %v; want 18980", ms, err)
	}
	if ms, err := parseStatSteal("cpu  1 2 3 4 5 6 7\n"); err != nil || ms != 0 {
		t.Errorf("a kernel without a steal column: %g ms, %v; want none stolen", ms, err)
	}
	if _, err := parseStatSteal("intr 1 2 3\n"); err == nil {
		t.Error("a file without the cpu line was accepted")
	}
}
