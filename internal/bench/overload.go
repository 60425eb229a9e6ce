package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
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
	OverloadQueue = 64    // admission engine's per-lane admission bound
)

// The rest of the timeline is fixed; a variable so the package smoke test
// can shorten the run.
var overloadPhase = 3 * time.Second // per-phase duration

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
// It runs twice over self-hosted engines: "static" (unbounded admission —
// the burst builds an unbounded queue and recovery-phase latency shows it)
// and "admission" (bounded admission — excess load is shed with 429 +
// Retry-After). Each variant is a group of per-second
// offered/completed/shed/client_dropped/latency lines, plus its line in the
// "summary" group: calibrated and offered rates, burst and recovery p99 and
// shed/client_dropped/lost accounting, with client_dropped also as a share
// of the arrivals (the generator's saturation).
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
		{"admission", overload.Config{MaxQueue: OverloadQueue}},
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
			laps, err := calibrateRate(o, srv.URL, zipf, qt)
			if err != nil {
				return err
			}
			sus := slices.Max(laps)
			if offered == 0 {
				offered = 2 * sus
			}
			summary = append(summary,
				Row{"summary", v.name, "sustainable", sus, "1/s"}, // closed-loop, fastest lap
				Row{"summary", v.name, "offered", offered, "1/s"}) // open-loop burst
			for i, rate := range laps {
				summary = append(summary, Row{"summary", v.name, fmt.Sprintf("calibration lap %d", i+1), rate, "1/s"})
			}
			timeline, sum := runOpenTimeline(o, srv.URL, v.name, zipf, qt, offered)
			rows, summary = append(rows, timeline...), append(summary, sum...)
			return nil
		}()
		if runErr != nil {
			return "", nil, runErr
		}
	}
	title := fmt.Sprintf("Open-loop overload: baseline, burst, recovery at %v each", overloadPhase)
	return title, append(rows, summary...), nil
}

// calibrationLaps is how many times calibrateRate runs its traffic.
const calibrationLaps = 5

// calibrateRate measures the closed-loop saturation throughput: 4 clients
// back-to-back, no think time — the rate the engine sustains when clients
// self-throttle (HTTP + build + forward; batches form behind each flush, no
// request waits on MaxWait). The open-loop burst offers a multiple of this.
// It returns the rate of each of calibrationLaps laps of that traffic, fresh
// node draws each lap; the fastest is the reading, because interference from
// the host only ever slows a lap (one lap alone read anywhere from 4,643 to
// 13,460 req/s at one commit).
func calibrateRate(o Options, base string, zipf *mathx.Alias, qt float64) ([]float64, error) {
	const clients, reqs = 4, 100
	client := openHTTPClient()
	laps := make([]float64, 0, calibrationLaps)
	for lap := 0; lap < calibrationLaps; lap++ {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := mathx.NewRNG(o.Seed + uint64(lap*clients+c)*104729)
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
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		laps = append(laps, float64(clients*reqs)/time.Since(start).Seconds())
	}
	return laps, nil
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
	dropped   int       // arrivals the generator could not send: openConns were in flight
	lats      []float64 // seconds, completed requests only
}

// runOpenTimeline drives the three-phase constant-arrival-rate timeline and
// returns its per-second lines (group label) and its summary cells. At most
// openConns requests are in flight: an arrival that finds them all taken is
// not sent and counts as client_dropped — the generator's saturation, read
// apart from the server's shed and kept out of lost.
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
	inflight := make(chan struct{}, openConns)
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
			select {
			case inflight <- struct{}{}:
			default:
				mu.Lock()
				secs[sec].dropped++
				mu.Unlock()
				continue
			}

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
				defer func() { <-inflight }()
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
	var done, shed, errCount, dropped int
	phaseLats := map[string][]float64{}
	for i, s := range secs {
		if s.offered == 0 {
			continue
		}
		done += s.completed
		shed += s.shed
		errCount += s.errs
		dropped += s.dropped
		phaseLats[s.phase] = append(phaseLats[s.phase], s.lats...)
		v := fmt.Sprintf("%d %s", i, s.phase)
		timeline = append(timeline,
			Row{label, v, "offered", float64(s.offered), ""}, Row{label, v, "completed", float64(s.completed), ""},
			Row{label, v, "shed", float64(s.shed), ""}, Row{label, v, "errs", float64(s.errs), ""},
			Row{label, v, "client_dropped", float64(s.dropped), ""})
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
		Row{"summary", label, "client_dropped", float64(dropped), ""},
		Row{"summary", label, "client_dropped_share", float64(dropped) / float64(max(launched, 1)), "share"},
		Row{"summary", label, "retry_after_ok", retryOK, ""},
		Row{"summary", label, "lost", float64(launched - done - shed - errCount - dropped), ""})
}

// openConns is the open-loop driver's connection pool, and so its bound on
// requests in flight: without one, a burst past the server's pace opens a
// connection per arrival until the process runs out of file descriptors.
const openConns = 512

// openHTTPClient builds the open-loop driver's client: enough idle
// connections that a burst does not spend its budget on TCP churn, no more
// than openConns of them, and a hard timeout so a wedged server turns into
// counted losses, not a hung bench.
func openHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        openConns,
			MaxIdleConnsPerHost: openConns,
			MaxConnsPerHost:     openConns,
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
