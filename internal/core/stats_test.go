package core

import (
	"reflect"
	"testing"
)

// maxMerged names the Stats fields Add merges by maximum instead of
// summing; every other field is a counter and must sum. A new max-merged
// field must be listed here or the completeness test flags it.
var maxMerged = map[string]bool{
	"MaxWaitNs": true,
}

// TestStatsCompleteness walks the Stats struct by reflection and pins two
// contracts for every field, present and future (the shard package merges
// per-shard Stats with Add, so a field dropped there would silently
// disappear from every sharded experiment):
//
//   - Add must propagate it with the right merge: counters sum (3+5 = 8),
//     max-merged fields keep the maximum (max(3, 5) = 5). Either way, a
//     field Add drops would come back 0 and fail both expectations.
//   - String must render it: setting the field alone must change the
//     text output.
func TestStatsCompleteness(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	baseline := Stats{}.String()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)

		var a, b Stats
		av := reflect.ValueOf(&a).Elem().Field(i)
		bv := reflect.ValueOf(&b).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64:
			av.SetUint(3)
			bv.SetUint(5)
		case reflect.Int64:
			av.SetInt(3)
			bv.SetInt(5)
		default:
			t.Fatalf("field %s has unhandled kind %s; extend this test", f.Name, f.Type.Kind())
		}

		want := int64(8)
		if maxMerged[f.Name] {
			want = 5
		}
		merged := reflect.ValueOf(a.Add(b)).Field(i)
		var got int64
		switch f.Type.Kind() {
		case reflect.Uint64:
			got = int64(merged.Uint())
		case reflect.Int64:
			got = merged.Int()
		}
		if got != want {
			t.Errorf("Add mishandles field %s: merge(3, 5) = %d, want %d", f.Name, got, want)
		}

		if a.String() == baseline {
			t.Errorf("field %s does not appear in String", f.Name)
		}
	}
}

// TestStatsAddCommutes pins that Add has no hidden normalization: it is a
// plain field-wise sum for counters and a field-wise max for MaxWaitNs,
// both of which commute and have the zero value as identity.
func TestStatsAddCommutes(t *testing.T) {
	a := Stats{Awaits: 1, Wakeups: 2, TagChecks: 3, Abandons: 4, Evictions: 5, MaxWaitNs: 70}
	b := Stats{Awaits: 10, Wakeups: 20, TagChecks: 30, Arms: 7, MaxWaitNs: 40}
	if a.Add(b) != b.Add(a) {
		t.Error("Add is not commutative")
	}
	if got := a.Add(Stats{}); got != a {
		t.Errorf("Add identity violated: %+v", got)
	}
	if got := a.Add(b).MaxWaitNs; got != 70 {
		t.Errorf("MaxWaitNs merged to %d, want the maximum 70", got)
	}
}
