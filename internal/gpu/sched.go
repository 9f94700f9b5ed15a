package gpu

import (
	"fmt"

	"questgo/internal/gpu/hw"
	"questgo/internal/hubbard"
)

// Group is a set of simulated accelerators sharing one node: the
// multi-GPU configuration of the scale-out experiments (per-spin and
// per-slice-block sharding). The devices never exchange
// data: every sharding axis keeps a device's operands on that device.
type Group struct {
	Devs []*hw.Device
}

// NewGroup creates n identical devices.
func NewGroup(n int) *Group {
	if n < 1 {
		panic(fmt.Sprintf("gpu: group needs at least one device, got %d", n))
	}
	g := &Group{Devs: make([]*hw.Device, n)}
	for i := range g.Devs {
		g.Devs[i] = hw.NewDevice()
	}
	return g
}

// Size returns the number of devices.
func (g *Group) Size() int { return len(g.Devs) }

// Reset resets every device clock.
func (g *Group) Reset() {
	for _, d := range g.Devs {
		d.Reset()
	}
}

// spinPool returns the devices of g assigned to one spin sector: the first
// ceil(n/2) devices to spin-up, the rest to spin-down (the sectors are
// independent within a sweep, so the split needs no inter-device traffic
// at all). A single device serves both sectors (one card, three streams a
// sector); with 2 devices each sector gets its own card; with 4, each
// sector shards its cluster blocks over two.
func spinPool(g *Group, sigma hubbard.Spin) []*hw.Device {
	n := len(g.Devs)
	if n == 1 {
		return g.Devs
	}
	half := (n + 1) / 2
	if sigma == hubbard.Up {
		return g.Devs[:half]
	}
	return g.Devs[half:]
}
