package gpu

import (
	"fmt"
	"time"

	"questgo/internal/hubbard"
)

// Group is a set of simulated accelerators sharing one node: the
// multi-GPU configuration of the scale-out experiments (per-spin,
// per-chain and per-slice-block sharding). All devices share a cost model
// and never exchange data: every sharding axis keeps a device's operands
// on that device.
type Group struct {
	Devs []*Device
}

// NewGroup creates n identical devices with the given cost model.
func NewGroup(n int, model DeviceModel) *Group {
	if n < 1 {
		panic(fmt.Sprintf("gpu: group needs at least one device, got %d", n))
	}
	g := &Group{Devs: make([]*Device, n)}
	for i := range g.Devs {
		g.Devs[i] = NewDevice(model)
	}
	return g
}

// GroupOf wraps existing devices.
func GroupOf(devs ...*Device) *Group {
	if len(devs) == 0 {
		panic("gpu: empty device group")
	}
	return &Group{Devs: devs}
}

// Size returns the number of devices.
func (g *Group) Size() int { return len(g.Devs) }

// Clock returns the modeled wall clock of the whole group: the slowest
// device (they run concurrently).
func (g *Group) Clock() time.Duration {
	var max time.Duration
	for _, d := range g.Devs {
		if c := d.Clock(); c > max {
			max = c
		}
	}
	return max
}

// LaunchOverhead sums the fixed launch/latency overhead across devices.
func (g *Group) LaunchOverhead() time.Duration {
	var t time.Duration
	for _, d := range g.Devs {
		t += d.LaunchOverhead()
	}
	return t
}

// Reset resets every device clock.
func (g *Group) Reset() {
	for _, d := range g.Devs {
		d.Reset()
	}
}

// --- placement ----------------------------------------------------------

// Scheduler decides where work lands on a Group. The three sharding axes
// of the scale-out design map to its methods:
//
//   - per-spin: SpinPool splits the devices between the two spin sectors
//     (the sectors are independent within a sweep, so this needs no
//     inter-device traffic at all);
//   - per-slice-block: a spin's NC cluster blocks are dealt round-robin
//     over the sector's pool (backend.owner), so a cluster's build and
//     the wraps and flushes of its slices run on the device that owns it;
//   - per-chain: PlaceChains deals independent Markov chains over whole
//     devices (embarrassingly parallel, the Wendt/Drut-style scale-out).
type Scheduler struct {
	G *Group
}

// SpinPool returns the devices assigned to one spin sector: the first
// ceil(n/2) devices to spin-up, the rest to spin-down. A single device
// serves both sectors (two streams, one card); with 2 devices each sector
// gets its own card; with 4, each sector shards its cluster blocks over
// two.
func (sc Scheduler) SpinPool(sigma hubbard.Spin) []*Device {
	n := len(sc.G.Devs)
	if n == 1 {
		return sc.G.Devs
	}
	half := (n + 1) / 2
	if sigma == hubbard.Up {
		return sc.G.Devs[:half]
	}
	return sc.G.Devs[half:]
}

// PlaceChains deals independent Markov chains over the whole group,
// returning the device index for each chain.
func (sc Scheduler) PlaceChains(chains int) []int {
	owners := make([]int, chains)
	for c := range owners {
		owners[c] = c % len(sc.G.Devs)
	}
	return owners
}
