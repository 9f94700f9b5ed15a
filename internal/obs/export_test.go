package obs

import "sync/atomic"

// Charges returns the number of Charge calls c has taken: every End and Lap
// goes through Charge, so this counts the clock reads the collector charges.
func (c *Collector) Charges() int64 { return atomic.LoadInt64(&c.charges) }
