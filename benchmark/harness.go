package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostProbe streams over a 64 MB buffer and times the pass. It calls nothing
// from the repo: on this shared 2-vCPU host one pass takes 10.5–11.5 ms when
// the host is quiet and 12–15 ms (on other days 20–38 ms) in episodes of
// 5–20 s while the benchmarked code is unchanged, so the probe reported next
// to a result tells "the host was slow" from "the program got slower". It
// never filters or rescales a result.
type hostProbe struct {
	buf  []uint64
	ms   []float64
	sink uint64
}

const hostProbeBytes = 64 << 20

func newHostProbe(bytes int) *hostProbe {
	p := &hostProbe{buf: make([]uint64, bytes/8)}
	for i := range p.buf { // pre-touch: page faults are not what it measures
		p.buf[i] = uint64(i)
	}
	return p
}

func (p *hostProbe) run() {
	start := time.Now()
	var s uint64
	for _, v := range p.buf {
		s += v
	}
	p.sink += s
	p.ms = append(p.ms, msSince(start))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuMS is the process CPU time (user+sys) so far.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rssPeakMB reads VmHWM, the process's peak resident set.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return cp[lo] + (cp[hi]-cp[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the highest of p99/p95/p90 that has at least ten of the
// n pooled samples beyond it and is not above limit, when one is set (p90
// when even that has fewer).
func tailQuantile(n int, limit float64) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if (limit == 0 || q <= limit) && float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.90
}

// window is one timed window cut into equal-work laps. Every timing is kept
// per lap and the window reports its best lap — the highest rate, the lowest
// median latency, the lowest CPU per op — as timeit reports the minimum:
// interference from the shared host only ever slows a lap, in episodes that
// can cover most of a run (identical laps measured 176 then 233 edges/s
// within one run), so the median lap measures the neighbours and the best
// lap the program. Every lap's rate and the pooled percentiles are still in
// the info line.
type window struct {
	lapRate  []float64   // work units per second, one entry per lap
	lapLatMS [][]float64 // each lap's op latencies
	lapCPUMS []float64   // each lap's process CPU time per op
	latMS    []float64   // every op's latency, laps pooled
	ops      int
	wallS    float64 // laps only, probes excluded
	mallocs  uint64  // laps only
}

// bestRate is the fastest lap's rate.
func (w *window) bestRate() float64 { return quantile(w.lapRate, 1) }

// bestLatency is the lowest per-lap q-quantile of op latency.
func (w *window) bestLatency(q float64) float64 {
	per := make([]float64, len(w.lapLatMS))
	for i, lat := range w.lapLatMS {
		per[i] = quantile(lat, q)
	}
	return quantile(per, 0)
}

// runLaps runs the instance's primary laps first .. first+laps-1, probing the
// host before the first lap and after every lap. A lap appends each op's
// latency to w.latMS and returns the ops it completed and the work units they
// amount to; what the instance does between laps is not timed.
func runLaps(inst running, first, laps int, tr *tracer, probe *hostProbe) (*window, error) {
	w := &window{}
	probe.run()
	for i := first; i < first+laps; i++ {
		from := len(w.latMS)
		m0, c0, t0 := mallocs(), cpuMS(), time.Now()
		ops, work, err := inst.lap(i, w, tr)
		wall := time.Since(t0).Seconds()
		cpu := cpuMS() - c0
		w.mallocs += mallocs() - m0
		if err != nil {
			return nil, fmt.Errorf("lap %d: %w", i, err)
		}
		w.ops += ops
		w.wallS += wall
		w.lapRate = append(w.lapRate, work/wall)
		w.lapLatMS = append(w.lapLatMS, w.latMS[from:len(w.latMS):len(w.latMS)])
		w.lapCPUMS = append(w.lapCPUMS, cpu/float64(ops))
		if err := inst.between(tr); err != nil {
			return nil, fmt.Errorf("after lap %d: %w", i, err)
		}
		probe.run()
	}
	return w, nil
}

// finite fails the run on a NaN or infinite loss or score.
func finite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s is not finite: %v", what, v)
	}
	return nil
}
