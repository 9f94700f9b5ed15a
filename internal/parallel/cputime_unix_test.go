//go:build unix

package parallel

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime is the user + system CPU time the process has consumed.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
