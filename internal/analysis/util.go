package analysis

import "go/types"

// NamedOf returns the (possibly instantiated) named type of t, looking
// through one level of pointer, or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t (or *t) is the named type pkgPath.name.
// For instantiated generics the origin type's identity is compared, so
// atomic.Pointer[X] matches ("sync/atomic", "Pointer").
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Origin().Obj()
	return obj != nil && obj.Name() == name &&
		obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
