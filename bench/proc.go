package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSec is USER_HZ: the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports; the
// kernel scales its internal tick rate to this value for userspace.
const clockTicksPerSec = 100

// parseStatCPU extracts user+system CPU time, in milliseconds, from the
// contents of /proc/<pid>/stat. The command name (field 2) is wrapped
// in parentheses and may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After the command: field 3 (state) is index 0, so utime (14) and
	// stime (15) are indexes 11 and 12.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, need 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) * 1000 / clockTicksPerSec, nil
}

// parseStatusHWM extracts VmHWM (the resident-set high-water mark), in
// MB, from the contents of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPUms reads a live process's cumulative CPU time in milliseconds.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procPeakRSSMB reads a live process's peak resident set in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

// parseStatSteal extracts the CPU time the hypervisor took from this
// guest ("steal", the eighth value of the aggregate cpu line), in
// milliseconds, from the contents of /proc/stat. A kernel too old to
// report it reports none stolen.
func parseStatSteal(stat string) (float64, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: no aggregate cpu line in %q", line)
	}
	if len(f) < 9 {
		return 0, nil
	}
	steal, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: steal: %w", err)
	}
	return float64(steal) * 1000 / clockTicksPerSec, nil
}

// hostStealMs reads the guest's cumulative stolen CPU time.
func hostStealMs() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseStatSteal(string(b))
}
