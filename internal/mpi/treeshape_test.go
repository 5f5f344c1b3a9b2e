package mpi_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This characterization pins the message pattern of every binomial
// tree collective: for each operation, membership view and world size,
// the ordered (dst, tag) eager sends of every rank — read from the MPI
// trace's "eager" spans — plus each rank's error and the root's re-plan
// count must match testdata/treeshape.golden byte for byte. Any change
// to a member order, a tree shape, a fence or a tag shows up as a diff.
// Sizes run 2–9 (a cluster needs two nodes); the size-2 quorum view
// runs every collective over a one-member subgroup.

// shapeView is one membership view the collectives run under.
type shapeView struct {
	name string
	// build returns a fresh world of n ranks and the instant every rank
	// enters the collective.
	build func(t *testing.T, n int) (k *sim.Kernel, w *mpi.World, entry sim.Time)
}

func shapeMPIConfig() mpi.Config {
	mcfg := mpi.DefaultConfig()
	mcfg.WaitTimeout = 100 * sim.Millisecond
	return mcfg
}

var shapeViews = []shapeView{
	{"no-detector", func(t *testing.T, n int) (*sim.Kernel, *mpi.World, sim.Time) {
		k, _, w := treeCluster(t, n, nil, nil, shapeMPIConfig())
		return k, w, 0
	}},
	// One member bypassed at 2.1 ms, suspected at the 8 ms heartbeat
	// scan and repaired at 8.1 ms. The 2 ms heartbeat keeps it suspected
	// although alive until the next scan, so a collective entered at
	// 8.12 ms runs its gather and its release fence inside that window.
	{"suspect", func(t *testing.T, n int) (*sim.Kernel, *mpi.World, sim.Time) {
		live := liveness.Config{Enabled: true, Period: 2 * sim.Millisecond, SuspectAfter: 3 * sim.Millisecond, ConfirmAfter: 20 * sim.Millisecond}
		script := &fault.Script{Seed: 77, Actions: []fault.Action{
			{At: sim.Time(0).Add(2100 * sim.Microsecond), Kind: fault.NodeFail, Node: n / 2},
			{At: sim.Time(0).Add(8100 * sim.Microsecond), Kind: fault.NodeRepair, Node: n / 2},
		}}
		k, _, w := treeCluster(t, n, &live, script, shapeMPIConfig())
		return k, w, sim.Time(0).Add(8120 * sim.Microsecond)
	}},
	// Two severed segments split off a minority arc ({2,3} from size 4
	// on, {2} at size 3, {1} at size 2); the collective is entered after
	// the declaration, so the majority runs it over the quorum.
	{"quorum", func(t *testing.T, n int) (*sim.Kernel, *mpi.World, sim.Time) {
		var cuts []int
		switch {
		case n == 2:
			cuts = []int{0, 1}
		case n == 3:
			cuts = []int{1, 2}
		default:
			cuts = []int{1, 3}
		}
		const cutAt = 2 * sim.Millisecond
		script := &fault.Script{Seed: 55}
		for _, seg := range cuts {
			script.Actions = append(script.Actions, fault.Action{At: sim.Time(0).Add(cutAt), Kind: fault.LinkCut, Node: seg})
		}
		live := liveness.DefaultConfig()
		k, _, w := treeCluster(t, n, &live, script, shapeMPIConfig())
		return k, w, sim.Time(0).Add(cutAt + 4*sim.Millisecond)
	}},
}

// shapeOp is one collective call, made identically by every rank.
type shapeOp struct {
	name string
	root int // whose re-plan count is reported
	run  func(p *sim.Proc, cm *mpi.Comm) error
}

func shapeOps(n int) []shapeOp {
	var ops []shapeOp
	for root := 0; root < n; root++ {
		root := root
		ops = append(ops, shapeOp{fmt.Sprintf("bcast-tree root=%d", root), root, func(p *sim.Proc, cm *mpi.Comm) error {
			buf := make([]byte, 8)
			if cm.Rank() == root {
				copy(buf, "payload!")
			}
			return cm.Bcast(p, root, buf, mpi.WithAlgorithm(mpi.Tree))
		}})
	}
	ops = append(ops, shapeOp{"barrier-tree", 0, func(p *sim.Proc, cm *mpi.Comm) error {
		return cm.Barrier(p, mpi.WithAlgorithm(mpi.Tree))
	}})
	for root := 0; root < n; root++ {
		root := root
		ops = append(ops, shapeOp{fmt.Sprintf("reduce root=%d", root), root, func(p *sim.Proc, cm *mpi.Comm) error {
			send := make([]byte, 8)
			putU32(send, uint32(cm.Rank()+1))
			return cm.Reduce(p, root, mpi.SumU32, send, make([]byte, 8))
		}})
	}
	ops = append(ops, shapeOp{"allreduce-tree", 0, func(p *sim.Proc, cm *mpi.Comm) error {
		send := make([]byte, 8)
		putU32(send, uint32(cm.Rank()+1))
		return cm.Allreduce(p, mpi.SumU32, send, make([]byte, 8), mpi.WithAlgorithm(mpi.Tree))
	}})
	return ops
}

// shapeRun runs op on a fresh world of view v and renders each rank's
// eager sends in order, its error, and the root's re-plan count.
func shapeRun(t *testing.T, v shapeView, n int, op shapeOp, out *bytes.Buffer) {
	k, w, entry := v.build(t, n)
	defer k.Close()
	rec := trace.New()
	w.SetTracer(rec)
	errs := make([]error, n)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		delayUntil(p, entry)
		errs[cm.Rank()] = op.run(p, cm)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("%s n=%d %s: %v", v.name, n, op.name, err)
	}
	sends := make([][]string, n)
	for _, ev := range rec.Events() {
		if ev.Cat != trace.MPI || ev.Kind != trace.Begin || ev.Name != "eager" {
			continue
		}
		var dst, tag, total int
		if _, err := fmt.Sscanf(ev.Detail, "dst=%d tag=%d total=%d", &dst, &tag, &total); err != nil {
			t.Fatalf("eager span detail %q: %v", ev.Detail, err)
		}
		sends[ev.Node] = append(sends[ev.Node], fmt.Sprintf("%d/%d", dst, tag))
	}
	fmt.Fprintf(out, "%s n=%d %s replans=%d\n", v.name, n, op.name, w.Engine(op.root).Stats().CollReplans)
	for r := 0; r < n; r++ {
		fmt.Fprintf(out, "  r%d: %s", r, strings.Join(sends[r], " "))
		if errs[r] != nil {
			fmt.Fprintf(out, " err=%v", errs[r])
		}
		out.WriteByte('\n')
	}
}

func TestTreeShapeGolden(t *testing.T) {
	var got bytes.Buffer
	for n := 2; n <= 9; n++ {
		for _, v := range shapeViews {
			for _, op := range shapeOps(n) {
				shapeRun(t, v, n, op, &got)
			}
		}
	}
	path := filepath.Join("testdata", "treeshape.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
