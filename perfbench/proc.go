package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// command builds an exec.Cmd for a program under test. Output goes to
// the given log file (nil discards it).
func (e *env) command(log *os.File, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(e.bin(name), args...)
	if log != nil {
		cmd.Stdout, cmd.Stderr = log, log
	}
	// A program under test must not outlive the benchmark, even when
	// the benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// usage is what a finished child cost.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + sys
	peakMB float64       // peak resident set
}

func usageOf(st *os.ProcessState, wall time.Duration) usage {
	u := usage{wall: wall, cpu: st.UserTime() + st.SystemTime()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		u.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a live process's user+sys CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// stop ends a child: SIGTERM, then SIGKILL after grace, and waits for
// it either way so no process outlives the run.
func stop(cmd *exec.Cmd, done <-chan error, grace time.Duration) error {
	if cmd.Process == nil {
		return nil
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		cmd.Process.Kill()
		return <-done
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
