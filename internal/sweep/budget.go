package sweep

import (
	"runtime"
	"sync/atomic"
)

// The process-wide CPU budget has GOMAXPROCS slots. Every job computing
// locally (runSafe) holds one in jobsRunning; a job waiting on a remote
// answer holds none. Parallel trial waves hold what they borrowed in
// cpusLent.
var jobsRunning, cpusLent atomic.Int64

// BorrowCPUs takes up to want of the CPU slots no job or wave holds,
// without blocking, and returns how many it took; give them back with
// ReturnCPUs. The caller counts as one CPU whether or not it holds a
// slot, so a caller outside any sweep (smtsim, a test) borrows at most
// GOMAXPROCS-1.
func BorrowCPUs(want int) int {
	for {
		lent := cpusLent.Load()
		idle := int64(runtime.GOMAXPROCS(0)) - max(jobsRunning.Load(), 1) - lent
		n := min(int64(want), idle)
		if n <= 0 {
			return 0
		}
		if cpusLent.CompareAndSwap(lent, lent+n) {
			return int(n)
		}
	}
}

// ReturnCPUs gives back n slots taken by BorrowCPUs.
func ReturnCPUs(n int) { cpusLent.Add(-int64(n)) }
