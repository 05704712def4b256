package main

import (
	"os"
	"os/exec"
	"syscall"
)

// killWithParent makes the kernel kill the workload process if the
// benchmark dies first, so no child outlives an interrupted run.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSBytes returns an exited process's peak resident set size; Linux
// reports ru_maxrss in KiB.
func peakRSSBytes(ps *os.ProcessState) int64 {
	return ps.SysUsage().(*syscall.Rusage).Maxrss << 10
}
