package gpu

import (
	"testing"

	"questgo/internal/hubbard"
)

// TestSpinPoolSplit checks the per-spin device split: 1 device serves both
// sectors, 2 gives each its own card, 4 gives each sector two.
func TestSpinPoolSplit(t *testing.T) {
	for _, tc := range []struct{ n, up, dn int }{
		{1, 1, 1},
		{2, 1, 1},
		{3, 2, 1},
		{4, 2, 2},
	} {
		g := NewGroup(tc.n, TeslaC2050())
		sc := Scheduler{G: g}
		up := sc.SpinPool(hubbard.Up)
		dn := sc.SpinPool(hubbard.Down)
		if len(up) != tc.up || len(dn) != tc.dn {
			t.Fatalf("n=%d: pools %d/%d, want %d/%d", tc.n, len(up), len(dn), tc.up, tc.dn)
		}
		if tc.n > 1 && up[0] == dn[0] {
			t.Fatalf("n=%d: spin sectors must not share a device", tc.n)
		}
	}
}

// TestPlacementRoundRobin checks the chain dealing (the cluster-block
// dealing is pinned by TestShardedClusterSetMatchesSingleDevice).
func TestPlacementRoundRobin(t *testing.T) {
	g := NewGroup(4, TeslaC2050())
	sc := Scheduler{G: g}
	chains := sc.PlaceChains(6)
	for c, o := range chains {
		if o != c%4 {
			t.Fatalf("chain %d owner %d, want %d", c, o, c%4)
		}
	}
}

// TestShardedClusterSetMatchesSingleDevice: dealing the cluster blocks
// over two devices must build bitwise the same products as one device.
func TestShardedClusterSetMatchesSingleDevice(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 4, 16, 31)
	dev := NewDevice(TeslaC2050())
	cs1 := NewClusterSet(NewAccelerator(dev, p), f, hubbard.Up, 4)

	grp := NewGroup(2, TeslaC2050())
	accs := []*Accelerator{NewAccelerator(grp.Devs[0], p), NewAccelerator(grp.Devs[1], p)}
	cs2 := NewClusterSetSharded(accs, f, hubbard.Up, 4)

	for c := 0; c < cs1.NC; c++ {
		if !cs2.Cluster(c).EqualApprox(cs1.Cluster(c), 0) {
			t.Fatalf("cluster %d differs between 1 and 2 devices", c)
		}
	}
	if cs2.AccFor(0) != accs[0] || cs2.AccFor(1) != accs[1] || cs2.AccFor(2) != accs[0] {
		t.Fatal("cluster blocks not dealt round-robin")
	}
}
