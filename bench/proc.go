package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start: package variables initialise before
// main, a few hundred microseconds after exec.
var procStart = time.Now()

// cpuTimes is the process's cumulative CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// processCPU reads user and system CPU time of the whole process, every
// thread included, so broker, clients and generator are all in it.
func processCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// rssPeakMB is the process's resident-set high-water mark. Linux reports
// ru_maxrss in KiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loopbackBytes returns the loopback interface's received-byte counter from
// /proc/net/dev. Every byte sent over 127.0.0.1 is received on lo once.
func loopbackBytes() (uint64, error) {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseUint(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no lo line in /proc/net/dev")
}

// gcSnapshot is the part of runtime.MemStats the proc.* metrics use.
type gcSnapshot struct {
	numGC      uint32
	pauseTotal time.Duration
	heapMB     float64
}

// readGC stops the world briefly, so traced runs call it at 2 Hz and
// end-to-end runs never.
func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{
		numGC:      ms.NumGC,
		pauseTotal: time.Duration(ms.PauseTotalNs),
		heapMB:     float64(ms.HeapInuse) / (1 << 20),
	}
}
