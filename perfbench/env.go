package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a sample of the process and host counters that explain a
// timed phase: wall clock, process CPU, host steal time and the Go heap.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	steal float64 // seconds, summed over the host's CPUs
	mem   runtime.MemStats
}

func sampleUsage() usage {
	u := usage{wall: time.Now(), steal: stealSeconds()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// phase is what happened between two samples.
type phase struct {
	wall, cpu  time.Duration
	steal      float64
	allocBytes uint64
	gcs        uint32
}

func between(a, b usage) phase {
	return phase{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		steal:      b.steal - a.steal,
		allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcs:        b.mem.NumGC - a.mem.NumGC,
	}
}

// userHz is the unit of the /proc/stat CPU counters on Linux.
const userHz = 100

// stealSeconds reads the host's cumulative steal time from /proc/stat: CPU
// time the hypervisor gave to other guests while this one wanted to run.
// It returns 0 where /proc/stat is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu  user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	steal, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return steal / userHz
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
