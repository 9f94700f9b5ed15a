//go:build !unix

package parallel

import (
	"testing"
	"time"
)

// cpuTime has no portable source here; the idle-CPU assertion is vacuous.
func cpuTime(*testing.T) time.Duration { return 0 }
