package synth

import (
	"reflect"
	"testing"
)

// TestProbeStatsAddCoversEveryField sets every counter of a record to 1
// and folds it in twice: a field Add forgot would read 0 instead of 2.
// MaxLBD is the one high-water mark and reads 1.
func TestProbeStatsAddCoversEveryField(t *testing.T) {
	var one ProbeStats
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				walk(f)
			} else {
				f.SetInt(1)
			}
		}
	}
	walk(reflect.ValueOf(&one).Elem())

	var sum ProbeStats
	sum.Add(one)
	sum.Add(one)
	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct:
				check(f, name+".")
			case name == "Stats.MaxLBD":
				if f.Int() != 1 {
					t.Errorf("%s = %d, want the high-water mark 1", name, f.Int())
				}
			case f.Int() != 2:
				t.Errorf("%s = %d after two Adds of 1, want 2", name, f.Int())
			}
		}
	}
	check(reflect.ValueOf(sum), "")
}
