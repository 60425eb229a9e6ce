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
// requests' p99 stays near the target). Per-second offered/completed/shed
// accounting and a machine-greppable OPENLOOP summary line per variant close
// the loop for scripts/overload_smoke.sh.
func overloadExp(o Options) error {
	fx, err := newServingFixture(o)
	if err != nil {
		return err
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
	for _, v := range variants {
		e, err := fx.engine(func(c *serve.Config) { c.CacheSize, c.Overload = 2048, v.ov })
		if err != nil {
			return err
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
			fmt.Fprintf(o.Out, "\n%s engine: sustainable ~%.0f req/s closed-loop, offered burst %.0f req/s (open-loop)\n",
				v.name, sus, offered)
			if err := runOpenTimeline(o, srv.URL, v.name, zipf, qt, offered); err != nil {
				return err
			}
			// Surface the control plane's own account of the run when it has one.
			if ov := e.Stats().Overload; ov != nil {
				fmt.Fprintf(o.Out, "overload plane: effective_max_batch=%d effective_max_wait_us=%d\n",
					ov.EffectiveMaxBatch, ov.EffectiveMaxWait.Microseconds())
			}
			return nil
		}()
		if runErr != nil {
			return runErr
		}
	}
	return nil
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
// prints the per-second table plus the OPENLOOP summary line.
func runOpenTimeline(o Options, base, label string, zipf *mathx.Alias, qt, rate float64) error {
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
	fmt.Fprintf(o.Out, "%-4s %-9s %8s %9s %6s %5s %9s %9s\n",
		"sec", "phase", "offered", "completed", "shed", "errs", "p50(ms)", "p99(ms)")
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
		p50, p99 := math.NaN(), math.NaN()
		if len(s.lats) > 0 {
			p50 = stats.Quantile(s.lats, 0.50) * 1e3
			p99 = stats.Quantile(s.lats, 0.99) * 1e3
		}
		fmt.Fprintf(o.Out, "%-4d %-9s %8d %9d %6d %5d %9.2f %9.2f\n",
			i, s.phase, s.offered, s.completed, s.shed, s.errs, p50, p99)
	}
	lost := launched - done - shed - errCount
	quant := func(phase string, q float64) float64 {
		l := phaseLats[phase]
		if len(l) == 0 {
			return math.NaN()
		}
		return stats.Quantile(l, q) * 1e3
	}
	// retry_after_ok: every shed response carried a usable Retry-After
	// (vacuously true when nothing shed — the static engine never sheds).
	retryOK := shedMissingRA == 0
	fmt.Fprintf(o.Out, "OPENLOOP %s burst_p99_ms=%.2f recovery_p99_ms=%.2f shed=%d retry_after_ok=%v lost=%d slo_ms=%.0f\n",
		label, quant("burst", 0.99), quant("recovery", 0.99), shed, retryOK, lost,
		float64(overloadSLO.Milliseconds()))
	return nil
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
