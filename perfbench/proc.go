package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime in clock ticks from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ") " come fields 3 (state) onward; utime and stime are fields
	// 14 and 15.
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, need 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the value of a "Key:   N kB" line of
// /proc/<pid>/status, in kB.
func parseStatusKB(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPUSeconds reads a process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	return float64(ticks) / clockTicks, err
}

// procStatusMB reads one kB field of a process's /proc status, such as
// VmRSS (resident set) or VmHWM (its high-water mark), in MB.
func procStatusMB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, key)
	return float64(kb) / 1024, err
}

// sampleRSS records a process's resident set every interval until stop
// is closed, then sends the samples (MB) on the returned channel.
func sampleRSS(pid int, interval time.Duration, stop <-chan struct{}) <-chan sample {
	out := make(chan sample, 1)
	go func() {
		var s sample
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- s
				return
			case <-t.C:
				if mb, err := procStatusMB(pid, "VmRSS"); err == nil {
					s = append(s, mb)
				}
			}
		}
	}()
	return out
}
