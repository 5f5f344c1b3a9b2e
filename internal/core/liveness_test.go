package core_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/sim"
)

// TestMcastDeadReceiverReclaim is the regression test for the multicast
// buffer leak: a bbp_Mcast group with one bypassed member used to pin
// the posted buffer until the retry daemon exhausted MaxRetries ×
// doubling Timeout (~51 ms per message). With the failure detector on,
// the dead receiver's ACK obligation is abandoned within the
// confirmation window, survivors keep receiving, and the sender never
// stalls on leaked slots.
func TestMcastDeadReceiverReclaim(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	lcfg := liveness.DefaultConfig()
	kill := 500 * sim.Microsecond
	script := &fault.Script{Seed: 21, Actions: []fault.Action{
		{At: sim.Time(0).Add(kill), Kind: fault.NodeFail, Node: 2},
	}}
	c, err := cluster.New(k, cluster.Options{
		Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script,
		Liveness: &lcfg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 24 multicasts to {1, 2, 3}: far more than the 16 buffer slots, so
	// the sender must reclaim mid-stream to finish. Node 2 dies after
	// the first few.
	const msgs = 24
	var doneAt sim.Time
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 24)
			if err := c.Endpoints[0].Mcast(p, []int{1, 2, 3}, payload); err != nil {
				t.Errorf("mcast %d: %v", i, err)
				return
			}
			p.Delay(50 * sim.Microsecond)
		}
		doneAt = p.Now()
	})
	for _, rx := range []int{1, 3} {
		rx := rx
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				n, err := c.Endpoints[rx].Recv(p, 0, buf)
				if err != nil {
					t.Errorf("survivor %d recv %d: %v", rx, i, err)
					return
				}
				if n != 24 || buf[0] != byte(i+1) {
					t.Errorf("survivor %d recv %d: n=%d first=%d", rx, i, n, buf[0])
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	stats := c.Endpoints[0].(*core.Endpoint).Stats()
	if stats.DeadPeerReclaims == 0 {
		t.Fatal("no dead-peer reclaims recorded")
	}
	if stats.RetryFailures != 0 {
		t.Fatalf("%d buffers still burned the full retry budget", stats.RetryFailures)
	}
	// The whole stream must finish on the detector's clock: kill +
	// confirmation window + the remaining sends, nowhere near a single
	// 51 ms retry exhaustion.
	bound := sim.Time(0).Add(kill + lcfg.ConfirmAfter + msgs*100*sim.Microsecond + 5*sim.Millisecond)
	if doneAt == 0 || doneAt > bound {
		t.Fatalf("sender finished at %v, want before %v", doneAt, bound)
	}
}
