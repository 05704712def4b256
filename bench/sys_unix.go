//go:build unix && !linux

package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// killWithParent is a no-op where the kernel offers no parent-death signal.
func killWithParent(*exec.Cmd) {}

// peakRSSBytes returns an exited process's peak resident set size; macOS
// reports ru_maxrss in bytes, the BSDs in KiB.
func peakRSSBytes(ps *os.ProcessState) int64 {
	rss := ps.SysUsage().(*syscall.Rusage).Maxrss
	if runtime.GOOS == "darwin" {
		return rss
	}
	return rss << 10
}
