package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named, unit-carrying value of the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
	spans     *tracer
}

func (r *result) output() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

// measure runs one pass of the workload's schedule untraced. Without
// tracing it then repeats segments until seconds of host time have gone
// by, which adds host-time samples (every repeat must reproduce the
// first pass's virtual timeline exactly). With tracing it runs a second,
// traced pass instead, which must reproduce the untraced digest.
func measure(w *workload, seed int64, seconds float64, traced bool) (*result, error) {
	start := time.Now()
	segs := w.plan(seed)
	res := &result{metrics: map[string]metric{}}
	pass, err := res.runPass(w, segs, repMode{})
	if err != nil {
		return nil, err
	}
	digest := passDigest(w, seed, pass)
	for i, s := range segs {
		for j := range s {
			if !s[j].aux {
				res.attempted++
				if pass[i].ops[j].failed {
					res.failed++
				}
			}
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("%s seed %d: digest %s over %d ops in %d segments (%d failed)",
		w.name, seed, digest, res.attempted, len(segs), res.failed))
	if w.note != "" {
		res.notes = append(res.notes, w.name+": "+w.note)
	}

	if traced {
		tpass, err := res.runPass(w, segs, repMode{wrap: true, instr: true})
		if err != nil {
			return nil, err
		}
		td := passDigest(w, seed, tpass)
		if td != digest {
			res.problems = append(res.problems, fmt.Sprintf("traced pass digest %s differs from untraced %s: the wrapper is not transparent", td, digest))
		}
		res.notes = append(res.notes, fmt.Sprintf("%s seed %d: traced digest %s; counter digest %s", w.name, seed, td, counterDigest(tpass)))
		if err := perLayer(res, w, pass, tpass); err != nil {
			return nil, err
		}
		// The span file keeps the last segment's spans.
		res.spans = tpass[len(tpass)-1].spans
	} else {
		all := pass
		perRep := time.Since(start).Seconds() / float64(len(pass))
		for i := 0; time.Since(start).Seconds()+perRep <= seconds; i++ {
			r, err := res.runRep(w, segs[i%len(segs)], repMode{})
			if err != nil {
				return nil, err
			}
			if got, want := repDigest(r), repDigest(pass[i%len(segs)]); got != want {
				res.problems = append(res.problems, fmt.Sprintf("repeat of segment %d diverged: digest %s, first pass %s", i%len(segs), got, want))
			}
			all = append(all, r)
		}
		// Set-up is cheap next to a segment, so it gets samples of its
		// own until the median rests on minSetups of them.
		setups := all
		for len(setups) < minSetups {
			r, err := res.runRep(w, nil, repMode{})
			if err != nil {
				return nil, err
			}
			setups = append(setups, r)
		}
		if err := endToEnd(res, w, segs, pass, all, setups); err != nil {
			return nil, err
		}
	}
	res.correct = len(res.problems) == 0
	return res, nil
}

// runRep runs one rep and records its corrupt deliveries as problems.
func (res *result) runRep(w *workload, ops []op, mode repMode) (*rep, error) {
	r, err := runRep(w, ops, mode)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, r.corrupt...)
	return r, nil
}

func (res *result) runPass(w *workload, segs [][]op, mode repMode) ([]*rep, error) {
	var reps []*rep
	for _, seg := range segs {
		r, err := res.runRep(w, seg, mode)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// sample collects the per-operation latencies of successful measured
// operations.
func samples(segs [][]op, reps []*rep, host bool) []float64 {
	var out []float64
	for i, r := range reps {
		seg := segs[i%len(segs)]
		for j, rec := range r.ops {
			if seg[j].aux || rec.failed {
				continue
			}
			if host {
				out = append(out, float64(rec.h1-rec.h0)/1e3)
			} else {
				out = append(out, float64(rec.v1-rec.v0)/1e3)
			}
		}
	}
	return out
}

// tailPct is the highest of p99 and p90 that leaves at least ten
// samples beyond it, falling back to p75 and then p50 for small counts.
func tailPct(n int) float64 {
	for _, p := range []int{99, 90, 75} {
		if n-(p*n+99)/100 >= 10 {
			return float64(p)
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// minSetups is the least number of set-ups setup_s is the median of.
const minSetups = 15

// endToEnd fills the end-to-end metrics: virtual ones from the first
// pass, host ones from every rep, setup_s from setups.
func endToEnd(res *result, w *workload, segs [][]op, pass, all, setups []*rep) error {
	vs := samples(segs, pass, false)
	if len(vs) == 0 {
		return fmt.Errorf("none of %d operations succeeded", res.attempted)
	}
	tail := tailPct(len(vs))
	res.set("op_vus_p50", percentile(vs, 50), "vus")
	res.set("op_vus_tail", percentile(vs, tail), "vus")

	var bytes, vns int64
	for _, r := range pass {
		bytes += r.bytes
		vns += int64(r.v1 - r.v0)
	}
	res.set("goodput_vmbs", float64(bytes)/1e6/(float64(vns)/1e9), "MB/vs")

	var ops int
	var hostNs int64
	for i, r := range all {
		for j := range r.ops {
			if !segs[i%len(segs)][j].aux {
				ops++
			}
		}
		hostNs += r.measureNs
	}
	var setup []float64
	for _, r := range setups {
		setup = append(setup, float64(r.setupNs)/1e9)
	}
	res.set("sim_ops_per_s", float64(ops)/(float64(hostNs)/1e9), "1/s")
	// The host tail stops at p90: on a shared machine the host p99 of a
	// 10 s run measures interference from other tenants more than the
	// simulator (its quartiles over ten pingpong-small runs were 34% of
	// the median apart, against 13% for the p50).
	hs := samples(segs, all, true)
	htail := min(tailPct(len(hs)), 90)
	res.set("host_op_us_p50", percentile(hs, 50), "us")
	res.set("host_op_us_tail", percentile(hs, htail), "us")
	res.set("setup_s", median(setup), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.notes = append(res.notes, fmt.Sprintf("%s: %d virtual samples (tail = p%g), %d host samples over %d reps (tail = p%g), set-up median of %d",
		w.name, len(vs), tail, len(hs), len(all), htail, len(setup)))
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// repDigest hashes what one rep simulated: every operation's virtual
// start, end and outcome, the payload bytes delivered, the kernel's
// event count and the final virtual clock.
func repDigest(r *rep) string {
	h := sha256.New()
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	for _, o := range r.ops {
		put(int64(o.v0))
		put(int64(o.v1))
		if o.failed {
			put(1)
		} else {
			put(0)
		}
	}
	put(r.bytes)
	put(r.events)
	put(int64(r.v0))
	put(int64(r.v1))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// passDigest is the simulated-statistics digest of a whole pass. A
// host-only change to the simulator must leave it unchanged.
func passDigest(w *workload, seed int64, pass []*rep) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d", w.name, seed)
	for _, r := range pass {
		fmt.Fprintf(h, "/%s", repDigest(r))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// counterDigest hashes the traced pass's metrics-registry counter
// deltas, which are as deterministic as the virtual timeline.
func counterDigest(pass []*rep) string {
	h := sha256.New()
	for _, r := range pass {
		names := make([]string, 0, len(r.counters))
		for n := range r.counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%d;", n, r.counters[n])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
