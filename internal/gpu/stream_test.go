package gpu

import (
	"testing"

	"questgo/internal/gpu/hw"
	"questgo/internal/rng"
)

// TestStreamsOverlapIndependentEngines checks the core overlap property:
// a transfer on one stream and a GEMM on another, with no event
// dependency, overlap in modeled time — the device clock is the max of
// the two engines' occupancy, not the sum.
func TestStreamsOverlapIndependentEngines(t *testing.T) {
	d := hw.NewDevice()
	copyS, compS := d.NewStream(), d.NewStream()
	n := 128
	h := randomDense(rng.New(1), n)
	dm := d.Malloc(n, n)
	da, db, dc := d.Malloc(n, n), d.Malloc(n, n), d.Malloc(n, n)

	copyS.SetMatrix(dm, h)
	compS.Dgemm(false, false, 1, da, db, 0, dc)

	xfer, comp := d.BusyTransfer(), d.BusyCompute()
	if xfer == 0 || comp == 0 {
		t.Fatal("both engines should have been charged")
	}
	clock := d.Clock()
	if clock >= xfer+comp {
		t.Fatalf("independent streams did not overlap: clock %v vs engines %v + %v", clock, xfer, comp)
	}
	if clock < xfer || clock < comp {
		t.Fatalf("clock %v below engine occupancy (%v transfer, %v compute)", clock, xfer, comp)
	}
}

// TestEventOrdersStreams checks Record/Wait semantics: the waiting stream
// cannot run ahead of the recorded stamp, and an event dependency
// serializes exactly the ordered pair.
func TestEventOrdersStreams(t *testing.T) {
	d := hw.NewDevice()
	producer, consumer := d.NewStream(), d.NewStream()
	n := 64
	h := randomDense(rng.New(2), n)
	dm := d.Malloc(n, n)

	producer.SetMatrix(dm, h)
	e := hw.NewEvent()
	producer.Record(e)
	if consumer.Clock() != 0 {
		t.Fatalf("idle stream clock should be 0, got %v", consumer.Clock())
	}
	consumer.Wait(e)
	if consumer.Clock() != producer.Clock() {
		t.Fatalf("Wait should advance the consumer to the stamp: %v vs %v", consumer.Clock(), producer.Clock())
	}
	// Waiting on an older stamp never rewinds a clock.
	stale := hw.NewEvent()
	consumer.Wait(stale)
	if consumer.Clock() != producer.Clock() {
		t.Fatal("waiting on an unrecorded event must not move the clock")
	}
}

// TestEngineOccupancyBoundsClock checks that two streams issuing compute
// work cannot beat the single card's aggregate throughput: the clock is
// bounded below by the compute-engine occupancy even though each stream's
// own critical path is half of it.
func TestEngineOccupancyBoundsClock(t *testing.T) {
	d := hw.NewDevice()
	s1, s2 := d.NewStream(), d.NewStream()
	n := 96
	a1, b1, c1 := d.Malloc(n, n), d.Malloc(n, n), d.Malloc(n, n)
	a2, b2, c2 := d.Malloc(n, n), d.Malloc(n, n), d.Malloc(n, n)

	s1.Dgemm(false, false, 1, a1, b1, 0, c1)
	s2.Dgemm(false, false, 1, a2, b2, 0, c2)

	if s1.Clock() != s2.Clock() {
		t.Fatalf("identical work on two streams should cost the same: %v vs %v", s1.Clock(), s2.Clock())
	}
	if d.Clock() != d.BusyCompute() {
		t.Fatalf("clock %v should equal compute occupancy %v (streams cannot oversubscribe the card)",
			d.Clock(), d.BusyCompute())
	}
	if d.Clock() != 2*s1.Clock() {
		t.Fatalf("two equal GEMMs should occupy the engine for twice one stream's path: %v vs 2*%v",
			d.Clock(), s1.Clock())
	}
}

// TestHostNodeRunsInline checks that host callbacks execute at their
// stream position and cost no modeled device time.
func TestHostNodeRunsInline(t *testing.T) {
	d := hw.NewDevice()
	s := d.NewStream()
	ran := false
	s.Host(func() { ran = true })
	if !ran {
		t.Fatal("host callback did not run")
	}
	if s.Clock() != 0 || d.Clock() != 0 {
		t.Fatal("host callbacks must not advance the modeled clock")
	}
}
