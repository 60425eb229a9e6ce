package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"taser/internal/mathx"
	"taser/internal/overload"
	"taser/internal/serve"
	"taser/internal/stats"
)

// OverloadRate and OverloadQueue are the overload experiment's own two
// parameters (`taser-bench -open-rate / -open-queue`, which `make
// bench-overload` sets to force the shed path).
var (
	OverloadRate  float64 // offered burst rate, req/sec (0 = 2× the calibrated sustainable rate)
	OverloadQueue = 64    // adaptive engine's per-lane admission bound
)

// The rest of the timeline is fixed; a variable so the package smoke test
// can shorten the run.
var overloadPhase = 3 * time.Second // per-phase duration

const overloadSLO = 25 * time.Millisecond // adaptive engine's p99 target

// overloadExp is the open-loop overload experiment: where a closed loop's
// clients wait for each response, so a slow server throttles its own offered
// load, arrivals here come at a constant rate regardless of completions,
// which is how real overload behaves.
//
// The timeline is continuous (no drain between phases, so a backlog built in
// the burst is visible in recovery):
//
//	baseline  rate/4 for one phase duration
//	burst     the full offered rate (2× the calibrated sustainable rate)
//	recovery  rate/4 again
//
// It runs twice over self-hosted engines: "static" (fixed MaxBatch,
// unbounded admission — the burst builds an unbounded queue and
// recovery-phase latency shows it) and "adaptive" (SLO controller + bounded
// admission — excess load is shed with 429 + Retry-After and the completed
// requests' p99 stays near the target). Each variant is a group of
// per-second offered/completed/shed/latency lines, plus its line in the
// "summary" group: calibrated and offered rates, burst and recovery p99,
// shed/lost accounting and the control plane's final effective batching.
func overloadExp(o Options) (string, []Row, error) {
	fx, err := newServingFixture(o)
	if err != nil {
		return "", nil, err
	}
	weights := make([]float64, fx.ds.Spec.NumNodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	zipf := mathx.NewAlias(weights)

	variants := []struct {
		name string
		ov   overload.Config
	}{
		{"static", overload.Config{}},
		{"adaptive", overload.Config{TargetP99: overloadSLO, Interval: 50 * time.Millisecond, MaxQueue: OverloadQueue}},
	}
	offered := OverloadRate
	var rows, summary []Row
	for _, v := range variants {
		e, err := fx.engine(func(c *serve.Config) { c.CacheSize, c.Overload = 2048, v.ov })
		if err != nil {
			return "", nil, err
		}
		runErr := func() error {
			defer e.Close()
			if err := fx.bootstrap(e); err != nil {
				return err
			}
			srv := httptest.NewServer(serve.NewHandler(e))
			defer srv.Close()
			wm, _ := e.Watermark()
			qt := wm + 1e9

			// Calibrate (and warm) every variant with the same closed-loop
			// traffic; the static run's measured rate fixes the offered burst
			// for both, so the comparison is at identical offered load.
			sus, err := calibrateRate(o, srv.URL, zipf, qt)
			if err != nil {
				return err
			}
			if offered == 0 {
				offered = 2 * sus
			}
			summary = append(summary,
				Row{"summary", v.name, "sustainable", sus, "1/s"}, // closed-loop
				Row{"summary", v.name, "offered", offered, "1/s"}) // open-loop burst
			timeline, sum := runOpenTimeline(o, srv.URL, v.name, zipf, qt, offered)
			rows, summary = append(rows, timeline...), append(summary, sum...)
			// The control plane's own account of the run, when it has one.
			if ov := e.Stats().Overload; ov != nil {
				summary = append(summary, Row{"summary", v.name, "effective_max_batch", float64(ov.EffectiveMaxBatch), ""})
			}
			return nil
		}()
		if runErr != nil {
			return "", nil, runErr
		}
	}
	title := fmt.Sprintf("Open-loop overload: baseline, burst, recovery at %v each | SLO %v", overloadPhase, overloadSLO)
	return title, append(rows, summary...), nil
}

// calibrateRate measures the closed-loop saturation throughput: 4 clients
// back-to-back, no think time — the rate the engine sustains when clients
// self-throttle (HTTP + build + forward; batches form behind each flush, no
// request waits on MaxWait). The open-loop burst offers a multiple of this.
func calibrateRate(o Options, base string, zipf *mathx.Alias, qt float64) (float64, error) {
	const clients, reqs = 4, 100
	client := openHTTPClient()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := mathx.NewRNG(o.Seed + uint64(c)*104729)
			for i := 0; i < reqs; i++ {
				status, _, err := postJSONStatus(client, base+"/v1/predict",
					map[string]any{"src": zipf.Draw(rng), "dst": zipf.Draw(rng), "t": qt})
				if err != nil {
					errs[c] = err
					return
				}
				if status/100 != 2 {
					errs[c] = fmt.Errorf("bench: calibration predict: HTTP %d", status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(clients*reqs) / time.Since(start).Seconds(), nil
}

// openSecond is one second of the open-loop timeline's accounting, keyed by
// arrival time (a request that arrives in second 3 and completes in second 7
// counts against second 3 — that tail is exactly the congestion signal).
type openSecond struct {
	phase     string
	offered   int
	completed int
	shed      int
	errs      int
	lats      []float64 // seconds, completed requests only
}

// runOpenTimeline drives the three-phase constant-arrival-rate timeline and
// returns its per-second lines (group label) and its summary cells.
func runOpenTimeline(o Options, base, label string, zipf *mathx.Alias, qt, rate float64) (timeline, summary []Row) {
	dur := overloadPhase
	phases := []struct {
		name string
		rate float64
	}{
		{"baseline", rate / 4},
		{"burst", rate},
		{"recovery", rate / 4},
	}
	totalSecs := int(3*dur/time.Second) + 2
	secs := make([]openSecond, totalSecs)
	var mu sync.Mutex // guards secs[i] mutation from completion goroutines
	var wg sync.WaitGroup
	var launched int
	var shedMissingRA int
	client := openHTTPClient()
	rng := mathx.NewRNG(o.Seed ^ 0x09e2)

	start := time.Now()
	for _, ph := range phases {
		interval := time.Duration(float64(time.Second) / ph.rate)
		phEnd := time.Now().Add(dur)
		next := time.Now()
		for {
			now := time.Now()
			if !now.Before(phEnd) {
				break
			}
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(interval)
			sec := int(time.Since(start) / time.Second)
			if sec >= totalSecs {
				sec = totalSecs - 1
			}
			mu.Lock()
			secs[sec].phase = ph.name
			secs[sec].offered++
			mu.Unlock()
			launched++

			var url string
			var body map[string]any
			if rng.Float64() < 0.8 {
				url, body = base+"/v1/predict", map[string]any{"src": zipf.Draw(rng), "dst": zipf.Draw(rng), "t": qt}
			} else {
				url, body = base+"/v1/embed", map[string]any{"node": zipf.Draw(rng), "t": qt}
			}
			wg.Add(1)
			go func(sec int) {
				defer wg.Done()
				t0 := time.Now()
				status, retryAfter, err := postJSONStatus(client, url, body)
				lat := time.Since(t0).Seconds()
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					secs[sec].errs++
				case status == http.StatusTooManyRequests:
					secs[sec].shed++
					if ra, err := strconv.Atoi(retryAfter); err != nil || ra < 1 {
						shedMissingRA++
					}
				case status/100 == 2:
					secs[sec].completed++
					secs[sec].lats = append(secs[sec].lats, lat)
				default:
					secs[sec].errs++
				}
			}(sec)
		}
	}

	// Bounded drain: an open-loop run must not hang on a wedged server —
	// whatever has not completed well past the timeline is counted lost.
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	drainBudget := 2*dur + 30*time.Second
	select {
	case <-joined:
	case <-time.After(drainBudget):
	}

	mu.Lock()
	defer mu.Unlock()
	var done, shed, errCount int
	phaseLats := map[string][]float64{}
	for i, s := range secs {
		if s.offered == 0 {
			continue
		}
		done += s.completed
		shed += s.shed
		errCount += s.errs
		phaseLats[s.phase] = append(phaseLats[s.phase], s.lats...)
		v := fmt.Sprintf("%d %s", i, s.phase)
		timeline = append(timeline,
			Row{label, v, "offered", float64(s.offered), ""}, Row{label, v, "completed", float64(s.completed), ""},
			Row{label, v, "shed", float64(s.shed), ""}, Row{label, v, "errs", float64(s.errs), ""})
		if len(s.lats) > 0 { // else the cells are absent
			timeline = append(timeline,
				Row{label, v, "p50", stats.Quantile(s.lats, 0.50) * 1e3, "ms"},
				Row{label, v, "p99", stats.Quantile(s.lats, 0.99) * 1e3, "ms"})
		}
	}
	for _, phase := range []string{"burst", "recovery"} {
		if l := phaseLats[phase]; len(l) > 0 {
			summary = append(summary, Row{"summary", label, phase + "_p99", stats.Quantile(l, 0.99) * 1e3, "ms"})
		}
	}
	// retry_after_ok: every shed response carried a usable Retry-After
	// (vacuously 1 when nothing shed — the static engine never sheds).
	retryOK := 0.0
	if shedMissingRA == 0 {
		retryOK = 1
	}
	return timeline, append(summary,
		Row{"summary", label, "shed", float64(shed), ""},
		Row{"summary", label, "retry_after_ok", retryOK, ""},
		Row{"summary", label, "lost", float64(launched - done - shed - errCount), ""})
}

// openHTTPClient builds the open-loop driver's client: enough idle
// connections that a burst does not spend its budget on TCP churn, and a hard
// timeout so a wedged server turns into counted losses, not a hung bench.
func openHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		},
	}
}

// postJSONStatus POSTs body and reports the response status and Retry-After
// header instead of folding non-2xx into an error — the open-loop driver
// accounts 429s, it does not abort on them.
func postJSONStatus(client *http.Client, url string, body any) (status int, retryAfter string, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}
