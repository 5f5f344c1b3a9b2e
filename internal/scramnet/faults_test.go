package scramnet

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestDropRateZeroLosesNothing(t *testing.T) {
	k, n := newNet(t, 4)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			n.NIC(0).WriteWord(p, i*4, uint32(i))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lost := n.NIC(0).Stats().PacketsLost; lost != 0 {
		t.Fatalf("lost %d packets at DropRate 0", lost)
	}
}

func TestDropRateLosesAndCounts(t *testing.T) {
	k, n := newNet(t, 4, func(c *Config) { c.DropRate = 0.5; c.Seed = 7 })
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			n.NIC(0).WriteWord(p, i*4, 0xFFFFFFFF)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	lost := n.NIC(0).Stats().PacketsLost
	if lost < 60 || lost > 140 {
		t.Fatalf("lost %d of 200 at DropRate 0.5", lost)
	}
	// Dropped packets never reached the peers' banks.
	missing := 0
	for i := 0; i < 200; i++ {
		if n.NIC(2).Peek(i*4, 1)[0] != 0xFF {
			missing++
		}
	}
	if int64(missing) == 0 {
		t.Fatal("no holes in the remote bank despite drops")
	}
}

func TestFaultsDeterministic(t *testing.T) {
	lost := func() int64 {
		k, n := newNet(t, 4, func(c *Config) { c.DropRate = 0.3; c.Seed = 42 })
		k.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				n.NIC(0).WriteWord(p, i*4, 1)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return n.NIC(0).Stats().PacketsLost
	}
	if a, b := lost(), lost(); a != b {
		t.Fatalf("fault injection not deterministic: %d vs %d", a, b)
	}
}

// TestBypassedOriginLossReachesMetrics covers a write from an optically
// bypassed card: its packet never reaches the ring, and
// ring.packets_lost must count it exactly as the card's own Stats do.
// This drop happens at the origin, before the CRC and broken-ring drop
// paths the other loss tests exercise.
func TestBypassedOriginLossReachesMetrics(t *testing.T) {
	k, n := newNet(t, 4)
	m := metrics.New()
	n.SetMetrics(m)
	n.FailNode(0)
	k.Spawn("w", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lost := n.NIC(0).Stats().PacketsLost; lost != 1 {
		t.Fatalf("NIC(0).Stats().PacketsLost = %d, want 1", lost)
	}
	if lost, _ := m.Snapshot().Counter("ring.packets_lost", 0); lost != 1 {
		t.Fatalf("ring.packets_lost at node 0 = %d, want 1", lost)
	}
}
