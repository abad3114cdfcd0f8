package sim

import (
	"reflect"
	"testing"
)

// holdsReference reports whether values of type t can share memory when
// copied by assignment.
func holdsReference(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return holdsReference(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsReference(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestCloneDeepCopiesEverySliceField fills every slice field of Result
// and requires Clone to detach each one, so a slice field added later
// cannot alias run-context scratch memory through Clone unnoticed. Any
// other reference-holding field, or a slice whose elements hold
// references, fails too: Clone's element-wise copy would not detach it.
func TestCloneDeepCopiesEverySliceField(t *testing.T) {
	var orig Result
	v := reflect.ValueOf(&orig).Elem()
	rt := v.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch {
		case f.Type.Kind() == reflect.Slice:
			if holdsReference(f.Type.Elem()) {
				t.Errorf("Result.%s: elements of %s hold references; Clone copies them shallowly", f.Name, f.Type)
			}
			v.Field(i).Set(reflect.MakeSlice(f.Type, 2, 2))
		case holdsReference(f.Type):
			t.Errorf("Result.%s: %s holds references Clone does not copy", f.Name, f.Type)
		}
	}
	clone := orig.Clone()
	if !reflect.DeepEqual(orig, clone) {
		t.Fatalf("Clone changed the contents:\n%+v\n%+v", orig, clone)
	}
	cv := reflect.ValueOf(clone)
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() != reflect.Slice {
			continue
		}
		if cv.Field(i).Pointer() == v.Field(i).Pointer() {
			t.Errorf("Result.%s: Clone shares the original's backing array", rt.Field(i).Name)
		}
	}
}
