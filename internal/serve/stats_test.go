package serve

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestLatencyRingWrapAround pins the ring semantics: once full, new samples
// overwrite the oldest, so quantiles cover exactly the last `capacity`
// samples.
func TestLatencyRingWrapAround(t *testing.T) {
	var r latencyRing
	r.init(4)
	if got := r.quantile(0.5); got != 0 {
		t.Fatalf("empty ring quantile = %v, want 0", got)
	}
	for _, ms := range []int{10, 20, 30, 40} {
		r.add(time.Duration(ms) * time.Millisecond)
	}
	if r.n != 4 || len(r.buf) != 4 {
		t.Fatalf("fill: n=%d len=%d", r.n, len(r.buf))
	}
	if got, want := r.quantile(1), 40*time.Millisecond; !near(got, want) {
		t.Fatalf("max = %v, want %v", got, want)
	}
	// Two more samples evict 10ms and 20ms: the window is {30,40,50,60}.
	r.add(50 * time.Millisecond)
	r.add(60 * time.Millisecond)
	if r.n != 6 || len(r.buf) != 4 {
		t.Fatalf("wrap: n=%d len=%d", r.n, len(r.buf))
	}
	if got := r.quantile(0); !near(got, 30*time.Millisecond) {
		t.Fatalf("min after wrap = %v, want 30ms (oldest samples evicted)", got)
	}
	if got := r.quantile(1); !near(got, 60*time.Millisecond) {
		t.Fatalf("max after wrap = %v, want 60ms", got)
	}
	// The median must fall inside the retained window, not the evicted one.
	if got := r.quantile(0.5); got < 30*time.Millisecond || got > 60*time.Millisecond {
		t.Fatalf("median %v outside retained window", got)
	}
	// Wrap all the way around: only the newest `capacity` samples remain.
	for i := 0; i < 8; i++ {
		r.add(time.Duration(100+i) * time.Millisecond)
	}
	if got := r.quantile(0); !near(got, 104*time.Millisecond) {
		t.Fatalf("min after full wrap = %v, want 104ms", got)
	}
}

// near tolerates the float64-seconds round trip of the ring's storage.
func near(got, want time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d < time.Microsecond
}

// fillStats sets every exported field reachable from v to a value made from
// k. Maps stay nil: the one in the schema (GateStats.ByName) is the wire form
// of a sibling field, rebuilt by its owner.
func fillStats(v reflect.Value, k int) {
	switch v.Kind() {
	case reflect.Struct:
		if _, ok := v.Interface().(time.Time); ok {
			v.Set(reflect.ValueOf(time.Unix(int64(k)*1000, 0)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillStats(v.Field(i), k)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillStats(v.Elem(), k)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillStats(v.Index(i), k)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(k))
	case reflect.Uint64:
		v.SetUint(uint64(k))
	case reflect.Float64:
		v.SetFloat(float64(k))
	case reflect.Bool:
		v.SetBool(k%2 == 0)
	case reflect.String:
		v.SetString(strconv.Itoa(k))
	case reflect.Map:
	default:
		panic("fillStats: a " + v.Kind().String() + " field joined the stats schema; teach this test about it")
	}
}

// diffStats returns the paths of the exported leaves on which x and y differ.
func diffStats(path string, x, y reflect.Value) []string {
	switch x.Kind() {
	case reflect.Struct:
		if _, ok := x.Interface().(time.Time); ok {
			break
		}
		var out []string
		for i := 0; i < x.NumField(); i++ {
			if f := x.Type().Field(i); f.IsExported() {
				out = append(out, diffStats(path+"."+f.Name, x.Field(i), y.Field(i))...)
			}
		}
		return out
	case reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			break
		}
		return diffStats(path, x.Elem(), y.Elem())
	case reflect.Array:
		var out []string
		for i := 0; i < x.Len(); i++ {
			out = append(out, diffStats(fmt.Sprintf("%s[%d]", path, i), x.Index(i), y.Index(i))...)
		}
		return out
	}
	if !reflect.DeepEqual(x.Interface(), y.Interface()) {
		return []string{path}
	}
	return nil
}

// TestStatsMergeCoversEveryField fails when an exported field of Stats,
// OverloadStats, ControllerStats, GateStats or LaneStats has no fold rule in
// its Merge. Every rule in use (sum, max, min, and, or, drop) is commutative,
// whereas a field Merge never mentions keeps the receiver's value — so with
// every field of a set from 1 and every field of b from 2, a.Merge(b) and
// b.Merge(a) disagree exactly on the forgotten fields. The wire-only fields
// are derived from the folded ones, so they are compared after derive.
func TestStatsMergeCoversEveryField(t *testing.T) {
	filled := func(k int) *Stats {
		var s Stats
		fillStats(reflect.ValueOf(&s).Elem(), k)
		return &s
	}
	ab, ba := filled(1), filled(2)
	ab.Merge(*filled(2))
	ba.Merge(*filled(1))
	now := time.Unix(5000, 0)
	ab.derive(now)
	ba.derive(now)
	for _, path := range diffStats("Stats", reflect.ValueOf(ab), reflect.ValueOf(ba)) {
		t.Errorf("%s has no fold rule: a.Merge(b) and b.Merge(a) disagree on it", path)
	}
	// The folds that are not plain sums, spot-checked for direction.
	if ab.WeightVersion != 1 || ab.SnapshotVersion != 2 || ab.Requests != 3 || !ab.LastCheckpoint.Equal(time.Unix(1000, 0)) {
		t.Fatalf("min/max/sum/oldest folds gave weight v%d, snapshot v%d, %d requests, checkpoint %v",
			ab.WeightVersion, ab.SnapshotVersion, ab.Requests, ab.LastCheckpoint)
	}
	if g := ab.Overload.Gate; g.Lanes[1].Shed != 3 || g.ByName["ingest"].Shed != 3 || g.Capacity != 3 || g.MaxQueue != 2 {
		t.Fatalf("gate fold: %+v", g)
	}
	if ab.Overload.EffectiveMaxBatch != 1 || ab.Overload.Controller.Held != 3 {
		t.Fatalf("overload fold: %+v / %+v", ab.Overload, ab.Overload.Controller)
	}
}
