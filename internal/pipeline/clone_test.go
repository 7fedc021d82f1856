package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"smthill/internal/cache"
	"smthill/internal/isa"
	"smthill/internal/pipeline"
	"smthill/internal/policy"
	"smthill/internal/workload"
)

// sharedByDesign lists the pointer types a checkpoint copies shallowly on
// purpose: a fan-out is the shared decode window of a batch's readers,
// and the shared L3 belongs to the multicore System, not to one core.
var sharedByDesign = map[reflect.Type]bool{
	reflect.TypeOf((*isa.Fanout)(nil)):     true,
	reflect.TypeOf((*cache.SharedL3)(nil)): true,
}

// TestCloneSharesNoMutableState guards CloneInto's `*dst = *src` base
// copy: a slice or pointer field that CloneInto forgets to refill stays
// aliased with the source, and the two executions then corrupt each
// other. It walks every value reachable from a copy and fails if any
// slice backing array, map or pointer also appears in the source, both for
// a fresh Clone and for CloneInto over a stale destination of another
// workload.
func TestCloneSharesNoMutableState(t *testing.T) {
	a := workload.ByName("art-mcf").NewMachine(policy.NewDCRA())
	b := workload.ByName("art-mcf-fma3d-gcc").NewMachine(policy.NewFlush())
	for _, m := range []*pipeline.Machine{a, b} {
		m.SetInvariantChecks(true)
		m.CycleN(20_000)
	}
	for _, c := range []struct {
		name       string
		src, stale *pipeline.Machine
	}{
		{"art-mcf", a, b.Clone()},
		{"art-mcf-fma3d-gcc", b, a.Clone()},
	} {
		checkDisjoint(t, c.name+" Clone", c.src, c.src.Clone())
		checkDisjoint(t, c.name+" CloneInto(stale)", c.src, c.src.CloneInto(c.stale))
		// A recycled same-shape destination takes the in-place path for
		// every component.
		dst := c.src.Clone()
		dst.CycleN(3_000)
		checkDisjoint(t, c.name+" CloneInto(same shape)", c.src, c.src.CloneInto(dst))
	}
}

func checkDisjoint(t *testing.T, name string, src, cp *pipeline.Machine) {
	t.Helper()
	owned := map[uintptr]string{}
	walkAddrs(reflect.ValueOf(src), "m", map[uintptr]bool{}, func(addr uintptr, path string) {
		owned[addr] = path
	})
	shared := 0
	walkAddrs(reflect.ValueOf(cp), "m", map[uintptr]bool{}, func(addr uintptr, path string) {
		if srcPath, ok := owned[addr]; ok && shared < 5 {
			shared++
			t.Errorf("%s: copy's %s shares storage with source's %s", name, path, srcPath)
		}
	})
}

// walkAddrs calls visit with the address of every slice with backing
// storage, non-empty map and non-nil pointer reachable from v, skipping sharedByDesign types.
// seen guards against pointer cycles.
func walkAddrs(v reflect.Value, path string, seen map[uintptr]bool, visit func(uintptr, string)) {
	if !hasPointers(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || sharedByDesign[v.Type()] || v.Type().Elem().Size() == 0 {
			return
		}
		p := v.Pointer()
		visit(p, path)
		if !seen[p] {
			seen[p] = true
			walkAddrs(v.Elem(), path, seen, visit)
		}
	case reflect.Interface:
		if !v.IsNil() {
			walkAddrs(v.Elem(), path, seen, visit)
		}
	case reflect.Slice:
		// An empty slice with spare capacity still aliases: the next
		// append on either side writes into the other's storage.
		if v.Cap() == 0 {
			return
		}
		visit(v.Pointer(), path)
		walkElems(v, path, seen, visit)
	case reflect.Map:
		if v.Len() == 0 {
			return
		}
		visit(v.Pointer(), path)
		for it := v.MapRange(); it.Next(); {
			walkAddrs(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen, visit)
		}
	case reflect.Array:
		walkElems(v, path, seen, visit)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkAddrs(v.Field(i), path+"."+v.Type().Field(i).Name, seen, visit)
		}
	}
}

// walkElems walks the elements of slice or array v that can hold
// pointers.
func walkElems(v reflect.Value, path string, seen map[uintptr]bool, visit func(uintptr, string)) {
	if !hasPointers(v.Type().Elem()) {
		return
	}
	for i := 0; i < v.Len(); i++ {
		walkAddrs(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, visit)
	}
}

// hasPointers reports whether a value of type t can reach other memory.
// Strings are immutable and so never count as shared mutable state.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
