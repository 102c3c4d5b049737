package core

import (
	"reflect"
	"testing"
)

// fillStats sets every numeric field and histogram bucket of a ClientStats
// to a distinct value derived from base, by reflection, so a field added
// later is covered without touching this test.
func fillStats(t *testing.T, base uint64) ClientStats {
	t.Helper()
	var s ClientStats
	v := reflect.ValueOf(&s).Elem()
	n := base
	set := func(f reflect.Value) {
		n++
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(n)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		default:
			t.Fatalf("ClientStats field of kind %v: teach Add, Sub and this test about it", f.Kind())
		}
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				set(f.Index(j))
			}
			continue
		}
		set(f)
	}
	return s
}

// Add sums every counter (MaxRetries takes the max) and Sub undoes it, so
// no field — the recovery block included — can be silently dropped.
func TestClientStatsAddSubCoverEveryField(t *testing.T) {
	a, b := fillStats(t, 0), fillStats(t, 1000)
	sum := a
	sum.Add(b)
	va, vb, vs := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fa, fb, fs := va.Field(i), vb.Field(i), vs.Field(i)
		switch {
		case name == "MaxRetries":
			if fs.Int() != fb.Int() {
				t.Errorf("MaxRetries = %d, want max %d", fs.Int(), fb.Int())
			}
		case fa.Kind() == reflect.Array:
			for j := 0; j < fa.Len(); j++ {
				if fs.Index(j).Uint() != fa.Index(j).Uint()+fb.Index(j).Uint() {
					t.Errorf("%s[%d] not summed", name, j)
				}
			}
		case fa.Kind() == reflect.Uint64:
			if fs.Uint() != fa.Uint()+fb.Uint() {
				t.Errorf("%s = %d, want %d", name, fs.Uint(), fa.Uint()+fb.Uint())
			}
		default:
			if fs.Int() != fa.Int()+fb.Int() {
				t.Errorf("%s = %d, want %d", name, fs.Int(), fa.Int()+fb.Int())
			}
		}
	}
	back := sum.Sub(b)
	back.MaxRetries = a.MaxRetries // a running max does not subtract
	if back != a {
		t.Errorf("(a+b)-b = %+v, want %+v", back, a)
	}
}
