package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTickMillis is the length of one /proc CPU tick. USER_HZ is 100
// on every Linux ABI Go targets; there is no portable sysconf in the
// standard library to ask.
const clockTickMillis = 10.0

// parseStatCPUTicks extracts utime+stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The comm field may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPUTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime sit at f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB extracts a "<key>:  <n> kB" line from the contents of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPUMillis reads a live process's accumulated user+system CPU.
func procCPUMillis(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPUTicks(string(raw))
	if err != nil {
		return 0, err
	}
	return float64(ticks) * clockTickMillis, nil
}

// procRSSMB reads one of a live process's resident-set figures from
// /proc/<pid>/status: "VmRSS" (now) or "VmHWM" (peak).
func procRSSMB(pid int, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(raw), key)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
