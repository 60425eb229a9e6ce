package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// baseSeconds is the primary-window length the workload sizes below were
// calibrated for on the 2-vCPU reference host. The timed window always does
// a fixed amount of work, never a fixed time: -seconds scales the size of a
// lap (seconds/baseSeconds), so the same -seconds on two commits times
// identical work.
const baseSeconds = 15

// options are one invocation's inputs.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool // toy sizes for the self-test
	outDir  string
}

// scale is the lap-size multiplier: 1 at the calibrated window length.
func (o options) scale() float64 {
	if o.tiny {
		return 0.02
	}
	return o.seconds / baseSeconds
}

// scaled sizes a per-lap count, never below floor.
func (o options) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*o.scale())))
}

// setupRuns is how often an untraced run repeats the whole set-up: setup_s
// is the median, so one slow host episode cannot own it either.
func (o options) setupRuns() int {
	if o.trace || o.tiny {
		return 1
	}
	return 3
}

// procs is the GOMAXPROCS every workload runs at, set by the runner. One: at
// two, identical compute-bound runs on this host are bimodal (the pipelined
// mixer epoch ran at 3 300 or 4 500–5 000 edges/s, 35 % apart, depending on
// whether the second vCPU was really there) and even the wait-dominated HTTP
// workload's CPU per op moved 21 % between runs.
const procs = 1

// workload is one named set of inputs.
type workload struct {
	name string
	laps int
	// tailCap is the highest percentile op_ms_tail may use (0 = none): an
	// open-loop run on this host loses 1–2 % of its requests to 30–80 ms stalls
	// of the whole VM, so its p99 measures the host, not the program.
	tailCap float64
	// qualityTol is how far quality_score may differ between two runs of one
	// seed: 0 where the outputs are a function of the seed alone.
	qualityTol float64
	// opNote says what an op and a side op are, for the run's info line.
	opNote string
	// setup builds everything the first timed op needs, from dataset
	// generation on. A traced run passes a tracer for the set-up spans.
	setup func(o options, tr *tracer) (running, error)
}

// running is a set-up workload instance.
type running interface {
	// lap runs primary lap i, appending op latencies to w. It returns the ops
	// completed and the work units they amount to.
	lap(i int, w *window, tr *tracer) (ops int, work float64, err error)
	// between runs after every primary lap, outside its timing: side laps
	// that must be spread over the run to meet a quiet host at all.
	between(tr *tracer) error
	// after runs what follows the primary window: the rest of the side
	// window and the quality probe, never overlapping a primary lap.
	after(tr *tracer) (side, error)
	// counts reports the primary ops attempted so far and how many of them
	// were answered correctly but past the workload's latency limit. An op
	// that errors or fails its output check ends the run instead, so a
	// printed result always has failed = 0: a late answer is not a failed op
	// (it lowers ok_share and ops_per_s), because how many are late is the
	// host's doing — 0 and 19 of 37 500 in two sets of runs of the same code.
	counts() (attempted, late int)
	// layers replays recorded op inputs layer by layer and reads the
	// program's exported counters (traced runs only). wallS is the length of
	// the traced window.
	layers(tr *tracer, wallS float64) (metrics, error)
	// info describes the instance for the run's info line.
	info() map[string]any
	close() error
}

// side is the outcome of the side window and the quality probe. The side
// window is cut into laps too and reports its best lap, like the primary.
type side struct {
	laps    []sideLap
	quality float64
}

type sideLap struct {
	ops     int
	seconds float64
	latMS   []float64
}

func (s side) ops() int {
	n := 0
	for _, l := range s.laps {
		n += l.ops
	}
	return n
}

// best is the fastest side lap's rate and the lowest per-lap median latency.
func (s side) best() (rate, p50 float64) {
	var rates, p50s []float64
	for _, l := range s.laps {
		if l.ops == 0 {
			continue // a short open-loop lap may draw no ingest
		}
		rates = append(rates, float64(l.ops)/l.seconds)
		p50s = append(p50s, median(l.latMS))
	}
	return quantile(rates, 1), quantile(p50s, 0)
}

// result is what one invocation reports.
type result struct {
	metrics   metrics
	attempted int
	failed    int // always 0: a failed op ends the run without a result
	info      map[string]any
}

// run executes one workload: repeated set-up, the lapped primary window, the
// side window and quality probe, and — traced — the per-layer replay.
func (wl *workload) run(o options) (*result, error) {
	runtime.GOMAXPROCS(procs)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	probeBytes := hostProbeBytes
	if o.tiny {
		probeBytes = 1 << 20
	}
	probe := newHostProbe(probeBytes)

	var inst running
	var setupS []float64
	for i := 0; i < o.setupRuns(); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		id := tr.begin("setup", -1, -1)
		var err error
		inst, err = wl.setup(o, tr)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	if o.trace {
		return wl.runTraced(o, inst, tr, probe, setupS[0])
	}

	w, err := runLaps(inst, 0, wl.laps, nil, probe)
	if err != nil {
		return nil, err
	}
	sd, err := inst.after(nil)
	if err != nil {
		return nil, err
	}
	if err := finite("quality_score", sd.quality); err != nil {
		return nil, err
	}
	attempted, late := inst.counts()
	ok := attempted - late
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	tailQ := tailQuantile(len(w.latMS), wl.tailCap)
	sideRate, sideP50 := sd.best()
	m := metrics{
		"setup_s":        median(setupS),
		"ops_per_s":      w.bestRate(),
		"op_ms_p50":      w.bestLatency(0.5),
		"op_ms_tail":     w.bestLatency(tailQ),
		"side_ops_per_s": sideRate,
		"side_op_ms_p50": sideP50,
		"cpu_ms_per_op":  quantile(w.lapCPUMS, 0),
		"allocs_per_op":  float64(w.mallocs) / float64(w.ops),
		"rss_mb_peak":    rss,
		"ok_share":       float64(ok) / float64(attempted),
		"quality_score":  sd.quality,
	}
	info := inst.info()
	info["op"] = wl.opNote
	info["laps"] = wl.laps
	info["setup_s_runs"] = setupS
	info["lap_rates"] = w.lapRate
	info["primary_window_s"] = w.wallS
	info["primary_ops"] = w.ops
	info["tail_quantile"] = tailQ
	info["tail_samples"] = len(w.latMS)
	info["op_ms_max"] = quantile(w.latMS, 1)
	info["op_ms_p90_p95_p99"] = []float64{quantile(w.latMS, 0.90), quantile(w.latMS, 0.95), quantile(w.latMS, 0.99)}
	info["side_ops"] = sd.ops()
	info["pooled"] = map[string]float64{
		"median_lap_rate": median(w.lapRate), "op_ms_p50": median(w.latMS),
		"op_ms_tail": quantile(w.latMS, tailQ), "cpu_ms_per_op": median(w.lapCPUMS),
	}
	info["host_probe_ms_p50"] = median(probe.ms)
	info["host_probe_ms_max"] = quantile(probe.ms, 1)
	info["late_ops"] = late
	return &result{metrics: m, attempted: attempted + sd.ops(), info: info}, nil
}

// runTraced reruns the workload at a quarter of its laps, first without and
// then with spans, so the difference between the two rates is the tracing
// overhead; then replays the recorded ops layer by layer.
func (wl *workload) runTraced(o options, inst running, tr *tracer, probe *hostProbe, setupS float64) (*result, error) {
	laps := (wl.laps + 3) / 4
	plain, err := runLaps(inst, 0, laps, nil, probe)
	if err != nil {
		return nil, err
	}
	traced, err := runLaps(inst, laps, laps, tr, probe)
	if err != nil {
		return nil, err
	}
	sd, err := inst.after(tr)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	lm, err := inst.layers(tr, traced.wallS)
	if err != nil {
		return nil, err
	}
	m.add(lm)
	m["host.probe_ms_p50"] = median(probe.ms)
	m["host.probe_ms_max"] = quantile(probe.ms, 1)
	m["bench.trace_overhead_share"] = 1 - traced.bestRate()/plain.bestRate()
	if err := tr.check(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	path, err := tr.write(o.outDir, wl.name, o.seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	attempted, _ := inst.counts()
	info := inst.info()
	info["trace_file"] = path
	info["spans"] = len(tr.spans)
	info["self_ms_by_span"] = selfTimes(tr)
	info["setup_s"] = setupS
	info["traced_laps"] = laps
	return &result{metrics: m, attempted: attempted + sd.ops(), info: info}, nil
}

// selfTimes is the trace's self time per span name, largest first.
func selfTimes(tr *tracer) []map[string]any {
	by := tr.byName()
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].selfMS > by[names[j]].selfMS })
	out := make([]map[string]any, 0, len(names))
	for _, n := range names {
		out = append(out, map[string]any{"span": n, "count": by[n].count, "self_ms": by[n].selfMS, "total_ms": by[n].totMS})
	}
	return out
}
