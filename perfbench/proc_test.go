package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (lognic serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 100 123456 789 18446744073709551615\n"
	ticks, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 731+269 {
		t.Fatalf("utime+stime = %d, want %d", ticks, 731+269)
	}
	if _, err := parseStatCPU([]byte("4242 (short) S 1 2 3")); err == nil {
		t.Fatal("truncated stat accepted")
	}
	if _, err := parseStatCPU([]byte("no command field")); err == nil {
		t.Fatal("stat without a command field accepted")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tlognic-serve\nVmPeak:\t  812345 kB\nVmHWM:\t   16452 kB\nVmRSS:\t   15300 kB\nThreads:\t9\n"
	for key, want := range map[string]int64{"VmHWM": 16452, "VmRSS": 15300, "VmPeak": 812345} {
		got, err := parseStatusKB([]byte(status), key)
		if err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB([]byte(status), "Threads"); err == nil {
		t.Error("a field without kB accepted")
	}
}

func TestProcSelf(t *testing.T) {
	pid := os.Getpid()
	if _, err := procCPUSeconds(pid); err != nil {
		t.Fatal(err)
	}
	rss, err := procStatusMB(pid, "VmRSS")
	if err != nil || rss <= 0 {
		t.Fatalf("VmRSS of self = %v, %v", rss, err)
	}
	hwm, err := procStatusMB(pid, "VmHWM")
	if err != nil || hwm < rss {
		t.Fatalf("VmHWM of self = %v (VmRSS %v), %v", hwm, rss, err)
	}
}
