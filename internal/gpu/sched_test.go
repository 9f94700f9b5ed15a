package gpu

import (
	"testing"

	"questgo/internal/greens"
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
		g := NewGroup(tc.n)
		up := spinPool(g, hubbard.Up)
		dn := spinPool(g, hubbard.Down)
		if len(up) != tc.up || len(dn) != tc.dn {
			t.Fatalf("n=%d: pools %d/%d, want %d/%d", tc.n, len(up), len(dn), tc.up, tc.dn)
		}
		if tc.n > 1 && up[0] == dn[0] {
			t.Fatalf("n=%d: spin sectors must not share a device", tc.n)
		}
	}
}

// TestShardedClusterSetMatchesSingleDevice: dealing the cluster blocks
// over a two-device pool must build bitwise the same products as one
// device, round-robin (each pool device builds half of the four blocks).
func TestShardedClusterSetMatchesSingleDevice(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 4, 16, 31)
	build := func(g *Group) *greens.ClusterSet {
		be := NewBackend(g, false)(p, hubbard.Up, 3)
		return greens.NewClusterSetWith(p, f, hubbard.Up, 4, be.Cluster)
	}
	cs1 := build(NewGroup(1))
	grp := NewGroup(4) // spin-up pool: devices 0 and 1
	cs2 := build(grp)

	for c := 0; c < cs1.NC; c++ {
		if !cs2.Cluster(c).EqualApprox(cs1.Cluster(c), 0) {
			t.Fatalf("cluster %d differs between 1 and 2 devices", c)
		}
	}
	k0, k1 := grp.Devs[0].Kernels(), grp.Devs[1].Kernels()
	if k0 == 0 || k0 != k1 || grp.Devs[2].Kernels() != 0 {
		t.Fatalf("cluster blocks not dealt round-robin over the pool: kernels %d / %d / %d", k0, k1, grp.Devs[2].Kernels())
	}
}
