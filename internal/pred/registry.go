package pred

import (
	"fmt"
	"strings"

	"predmatch/internal/value"
)

// Func is an opaque boolean predicate function over one attribute value
// — the paper's "function(t.attribute)" clause, about which nothing is
// assumed except that it returns true or false (and is therefore never
// indexable).
//
// A Func must be a pure function of its argument: the matcher may call
// it once per (function, attribute) per tuple and reuse the answer for
// every predicate that shares the clause.
type Func func(value.Value) bool

// Registry maps function names to implementations. A Registry is shared
// between parsing, validation and evaluation.
type Registry struct {
	m map[string]Func
}

// NewRegistry returns a registry pre-loaded with the built-in functions
// (the paper's example IsOdd among them):
//
//	isodd, iseven   — integer parity
//	ispositive, isnegative, iszero — sign tests for int/float
//	isempty         — empty string
//	isupper, islower — string case (ASCII)
func NewRegistry() *Registry {
	r := &Registry{m: make(map[string]Func)}
	r.MustRegister("isodd", func(v value.Value) bool {
		return v.Kind() == value.KindInt && v.AsInt()%2 != 0
	})
	r.MustRegister("iseven", func(v value.Value) bool {
		return v.Kind() == value.KindInt && v.AsInt()%2 == 0
	})
	r.MustRegister("ispositive", func(v value.Value) bool {
		f, ok := v.Numeric()
		return ok && f > 0
	})
	r.MustRegister("isnegative", func(v value.Value) bool {
		f, ok := v.Numeric()
		return ok && f < 0
	})
	r.MustRegister("iszero", func(v value.Value) bool {
		f, ok := v.Numeric()
		return ok && f == 0
	})
	r.MustRegister("isempty", func(v value.Value) bool {
		return v.Kind() == value.KindString && v.AsString() == ""
	})
	r.MustRegister("isupper", func(v value.Value) bool {
		if v.Kind() != value.KindString {
			return false
		}
		s := v.AsString()
		return s != "" && s == strings.ToUpper(s)
	})
	r.MustRegister("islower", func(v value.Value) bool {
		if v.Kind() != value.KindString {
			return false
		}
		s := v.AsString()
		return s != "" && s == strings.ToLower(s)
	})
	return r
}

// Register adds a function under a (case-insensitive) name.
func (r *Registry) Register(name string, fn Func) error {
	key := strings.ToLower(name)
	if key == "" {
		return fmt.Errorf("pred: function name must not be empty")
	}
	if _, dup := r.m[key]; dup {
		return fmt.Errorf("pred: function %s already registered", key)
	}
	r.m[key] = fn
	return nil
}

// MustRegister is Register panicking on error.
func (r *Registry) MustRegister(name string, fn Func) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// Get looks a function up by case-insensitive name.
func (r *Registry) Get(name string) (Func, bool) {
	fn, ok := r.m[strings.ToLower(name)]
	return fn, ok
}
