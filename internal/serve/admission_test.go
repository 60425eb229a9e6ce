package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"taser/internal/datasets"
	"taser/internal/tgraph"
)

// TestBootstrapIsAllOrNothing: a bulk run with one inadmissible event is
// rejected whole — nothing admitted, nothing WAL-logged, no watermark — so
// retrying the corrected run admits every event exactly once.
func TestBootstrapIsAllOrNothing(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	e := newRecoveryEngine(t, ds, Durability{Dir: t.TempDir()})
	const n, bad = 64, 40
	events := append([]tgraph.Event(nil), ds.Graph.Events[:n]...)
	feats := ds.EdgeFeat.SliceRows(n)
	events[bad].Time = events[bad-1].Time - 1 // behind the event before it

	err := e.Bootstrap(events, feats)
	if err == nil {
		t.Fatalf("bootstrap with event %d out of order was accepted", bad)
	}
	if _, ok := e.Watermark(); ok || e.NumEvents() != 0 {
		t.Fatalf("rejected bootstrap admitted %d events", e.NumEvents())
	}
	if st := e.Stats(); st.WALAppended != 0 {
		t.Fatalf("rejected bootstrap logged %d events", st.WALAppended)
	}
	if !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("out-of-order bootstrap error = %v, want ErrStaleEvent", err)
	}

	events[bad].Time = ds.Graph.Events[bad].Time
	if err := e.Bootstrap(events, feats); err != nil {
		t.Fatal(err)
	}
	if got := e.NumEvents(); got != n {
		t.Fatalf("corrected bootstrap left %d events, want %d", got, n)
	}
}

// TestFleetBootstrapIsAllOrNothing: the fleet-wide version — one shard's
// slice breaks chronology, so no shard admits anything, and the fleet's
// distinct/teed counters agree with its (empty) shards before and after the
// corrected retry.
func TestFleetBootstrapIsAllOrNothing(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	fl := newTestFleet(t, newMixerTrainer(t, ds), ds, 2, nil)
	const n = 128
	events := append([]tgraph.Event(nil), ds.Graph.Events[:n]...)
	feats := ds.EdgeFeat.SliceRows(n)
	// The last event landing on shard 1 alone goes back before the stream
	// started: shard 0's slice stays admissible, shard 1's does not.
	bad := -1
	for i := n - 1; i >= 0 && bad < 0; i-- {
		if fl.owner(events[i].Src) == 1 && fl.owner(events[i].Dst) == 1 {
			bad = i
		}
	}
	if bad < 0 {
		t.Fatal("no event owned by shard 1 alone")
	}
	events[bad].Time = events[0].Time - 1

	err := fl.Bootstrap(events, feats)
	if err == nil {
		t.Fatal("bootstrap with shard 1's slice out of order was accepted")
	}
	for s := 0; s < len(fl.shards); s++ {
		if got := fl.shards[s].NumEvents(); got != 0 {
			t.Fatalf("rejected bootstrap left %d events on shard %d", got, s)
		}
	}
	if st := fl.Stats(); fl.NumEvents() != 0 || st.Teed != 0 {
		t.Fatalf("rejected bootstrap moved the counters: %d events, %d teed", fl.NumEvents(), st.Teed)
	}
	var se *ShardError
	if !errors.Is(err, ErrStaleEvent) || !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("out-of-order bootstrap error = %v, want ErrStaleEvent from shard 1", err)
	}

	events[bad].Time = ds.Graph.Events[bad].Time
	if err := fl.Bootstrap(events, feats); err != nil {
		t.Fatal(err)
	}
	total := fl.shards[0].NumEvents() + fl.shards[1].NumEvents()
	if st := fl.Stats(); fl.NumEvents() != n || total != n+int(st.Teed) {
		t.Fatalf("corrected bootstrap: %d distinct, %d stored, %d teed; want %d distinct, stored = distinct + teed",
			fl.NumEvents(), total, st.Teed, n)
	}
}

// doorRecord is one fuzzed event's encoding: src and dst as int16 (mapped
// into (-NumNodes, NumNodes], so half land out of range), the time's bits, a
// time mode and a feature-width byte.
const doorRecord = 14

// doorSeed encodes one event for the corpus. tmode picks the time: 0 the raw
// value t, 1 the watermark, 2 the float just below it, 3 the watermark plus
// t. width picks the feature row: 0 omitted (the zero row), 1 the configured
// width, 2 and 3 an empty row, w ≥ 4 a row of w/4 floats.
func doorSeed(src, dst int16, tmode byte, t float64, width byte) []byte {
	b := make([]byte, doorRecord)
	binary.LittleEndian.PutUint16(b[0:], uint16(src))
	binary.LittleEndian.PutUint16(b[2:], uint16(dst))
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(t))
	b[12], b[13] = tmode, width
	return b
}

// FuzzIngestDoor sends one arbitrary event sequence through POST /v1/ingest
// to a bare engine and to a K=1 fleet. Every answer must be 200, 400 or 409 —
// never a 5xx or a panic — both must decide every event the same way, the
// decision must be the one DESIGN §14's table gives (400: a bad id, time or
// width; 409: a well-formed event behind the watermark), and watermark and
// event count must agree at the end. The seed corpus runs with every `go
// test`; `go test -run '^$' -fuzz FuzzIngestDoor ./internal/serve` explores.
func FuzzIngestDoor(f *testing.F) {
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(f, ds)
	n := int16(ds.Spec.NumNodes)
	ok := doorSeed(1, 2, 3, 1, 1)
	for _, seed := range [][]byte{
		doorSeed(1, 2, 0, 10, 1),
		doorSeed(1, 2, 0, math.NaN(), 1),
		doorSeed(1, 2, 0, math.Inf(1), 0),
		doorSeed(1, 2, 0, math.Inf(-1), 0),
		doorSeed(-1, 2, 0, 10, 1),
		doorSeed(1, -7, 0, 10, 0),
		doorSeed(n, 2, 0, 10, 1),
		doorSeed(1, n, 0, 10, 1),
		doorSeed(1, 2, 0, 10, 4*5),                              // wrong width
		doorSeed(1, 2, 0, 10, 2),                                // empty row
		doorSeed(1, 2, 0, 10, 4*33),                             // one float too many
		append(ok, doorSeed(2, 3, 1, 0, 1)...),                  // at the watermark
		append(ok, doorSeed(2, 3, 2, 0, 0)...),                  // just below it
		append(ok, doorSeed(2, 3, 2, 0, 4*5)...),                // below it and the wrong width
		append(ok, doorSeed(-2, 3, 2, 0, 1)...),                 // below it and a bad id
		append(ok, doorSeed(2, 3, 0, math.Inf(-1), 0)...),       // −Inf behind a watermark
		append(doorSeed(0, 0, 0, -7.5, 0), ok...),               // negative first time, then later
		append(append(ok, ok...), doorSeed(3, 1, 3, 0.5, 0)...), // a short valid stream
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*doorRecord {
			data = data[:64*doorRecord]
		}
		eng := newRefEngine(t, tr, ds)
		fl := newTestFleet(t, tr, ds, 1, nil)
		engH, flH := NewHandler(eng), NewHandler(fl)
		for i := 0; i+doorRecord <= len(data); i += doorRecord {
			body, want := doorEvent(eng, data[i:i+doorRecord], ds.Spec.NumNodes, ds.Spec.EdgeDim)
			ec, eb := doorPost(engH, body)
			fc, fb := doorPost(flH, body)
			if ec != want || fc != want {
				t.Fatalf("event %d %s: engine %d %s, fleet %d %s, want %d", i/doorRecord, body, ec, eb, fc, fb, want)
			}
			if ec == http.StatusOK && eb != fb {
				t.Fatalf("event %d %s: engine answered %s, fleet %s", i/doorRecord, body, eb, fb)
			}
		}
		ewm, eok := eng.Watermark()
		fwm, fok := fl.Watermark()
		if math.Float64bits(ewm) != math.Float64bits(fwm) || eok != fok || eng.NumEvents() != fl.NumEvents() {
			t.Fatalf("engine at t=%v (ok=%v) with %d events, fleet at t=%v (ok=%v) with %d",
				ewm, eok, eng.NumEvents(), fwm, fok, fl.NumEvents())
		}
	})
}

// doorEvent decodes one record into an ingest body against e's current
// watermark, and the status DESIGN §14's table gives it.
func doorEvent(e *Engine, rec []byte, numNodes, edgeDim int) (body string, want int) {
	m := int32(numNodes + 1)
	src := int32(int16(binary.LittleEndian.Uint16(rec[0:]))) % m
	dst := int32(int16(binary.LittleEndian.Uint16(rec[2:]))) % m
	t := math.Float64frombits(binary.LittleEndian.Uint64(rec[4:]))
	wm, hasWM := e.Watermark()
	switch rec[12] % 4 {
	case 1:
		t = wm
	case 2:
		t = math.Nextafter(wm, math.Inf(-1))
	case 3:
		t = wm + math.Abs(t)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"src":%d,"dst":%d,"t":%s`, src, dst, strconv.FormatFloat(t, 'g', -1, 64))
	width := -1 // no "feat" key
	switch w := int(rec[13]); {
	case w == 1:
		width = edgeDim
	case w >= 2:
		width = w / 4
	}
	if width >= 0 {
		b.WriteString(`,"feat":[`)
		for j := 0; j < width; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d.5", j)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')

	inRange := func(v int32) bool { return v >= 0 && int(v) < numNodes }
	switch {
	case math.IsNaN(t) || math.IsInf(t, 0): // JSON has no spelling for it
		return b.String(), http.StatusBadRequest
	case !inRange(src) || !inRange(dst) || (width >= 0 && width != edgeDim):
		return b.String(), http.StatusBadRequest
	case hasWM && t < wm:
		return b.String(), http.StatusConflict
	}
	return b.String(), http.StatusOK
}

// doorPost answers one ingest body in process.
func doorPost(h http.Handler, body string) (int, string) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
	return w.Code, strings.TrimSpace(w.Body.String())
}
