package sim

import (
	"reflect"
	"testing"
)

// TestHotPathRecordsPointerFree guards the property the engine's speed
// under a concurrent GC rests on: the records the event loop writes —
// event payloads, heap keys, queue records and packets — hold no
// pointers. Memory of pointer-free types is never scanned by the GC, and
// storing into it runs no write barrier, which otherwise costs every
// schedule, queue push and packet reuse while a collection is marking
// (as it often is when several simulations run at once, as in
// lognic-serve). A field that adds a pointer, slice, map, string,
// interface, func or channel to any of these types would bring that
// cost back without failing any other test; name vertices and packets by
// index instead.
func TestHotPathRecordsPointerFree(t *testing.T) {
	for _, v := range []any{event{}, eventKey{}, queued{}, packet{}} {
		typ := reflect.TypeOf(v)
		if path, ok := pointerField(typ, typ.Name()); ok {
			t.Errorf("%s holds a pointer-carrying field: %s", typ.Name(), path)
		}
	}
}

// pointerField reports the path of the first field of typ that is or
// contains a pointer-carrying kind.
func pointerField(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerField(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	default:
		// Pointer, UnsafePointer, Slice, Map, String, Interface, Func, Chan.
		return path + " (" + typ.Kind().String() + ")", true
	}
}
