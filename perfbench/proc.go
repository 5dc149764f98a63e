package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Process and host readings from /proc, for the peak-memory metric and
// the per-run environment line that marks a noisy run as one.

// statusField returns a field of a /proc status file as an integer (the
// kB figure for memory fields).
func statusField(path, field string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		v := strings.Fields(rest)
		if len(v) == 0 {
			break
		}
		return strconv.ParseInt(v[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// peakRSSMB is the peak resident set of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024, err
}

// cpuTicks returns the user+system CPU time of pid in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return u + st, nil
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 100

// hostCPU returns the total and steal jiffies of the host's cpu line.
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// envProbe brackets a timed phase with host and process readings.
type envProbe struct {
	pid                int
	total, steal, ivcs int64
}

func startEnv(pid int) envProbe {
	p := envProbe{pid: pid}
	p.total, p.steal = hostCPU()
	p.ivcs = involuntarySwitches(pid)
	return p
}

// involuntarySwitches sums the involuntary context switches of every
// thread of pid.
func involuntarySwitches(pid int) int64 {
	tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	var n int64
	for _, t := range tasks {
		v, _ := statusField(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name()), "nonvoluntary_ctxt_switches")
		n += v
	}
	return n
}

// finish returns the environment line: CPU budget, toolchain, the
// host's CPU steal during the phase and the program's involuntary
// context switches.
func (p envProbe) finish() string {
	total, steal := hostCPU()
	ivcs := involuntarySwitches(p.pid)
	share := 0.0
	if d := total - p.total; d > 0 {
		share = 100 * float64(steal-p.steal) / float64(d)
	}
	return fmt.Sprintf("%s steal=%.2f%% involuntary_ctx_switches=%d", goEnv(), share, ivcs-p.ivcs)
}
