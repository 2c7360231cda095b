package contract

import "sort"

// SetDropAdoptedWrite installs the AdoptSpeculative mutation seam for a
// test: fn names the write keys materialisation skips. It returns the
// function that removes it.
func SetDropAdoptedWrite(fn func(StateKey) bool) (restore func()) {
	dropAdoptedWrite = fn
	return func() { dropAdoptedWrite = nil }
}

// SetSkipCrossProofVerify installs the cross-shard proof mutation seam
// for a test: every state, recovered ones included, accepts an
// apply/expire/resolve whatever its Merkle proof. It returns the
// function that removes it.
func SetSkipCrossProofVerify() (restore func()) {
	skipCrossProofVerify = true
	return func() { skipCrossProofVerify = false }
}

// SetSkipRegistryRead installs the invocation-footprint mutation seam
// for a test: no invocation declares its read of the registry. It
// returns the function that removes it.
func SetSkipRegistryRead() (restore func()) {
	skipRegistryRead = true
	return func() { skipRegistryRead = false }
}

// MethodNames lists the method table's entries as "<type>/<method>"
// ("<type>/" for the types whose entry matches any method), sorted.
func MethodNames() []string {
	names := make([]string, 0, len(methods))
	for k := range methods {
		names = append(names, string(k.typ)+"/"+k.name)
	}
	sort.Strings(names)
	return names
}

// MethodOf names the table entry a call resolved to, "" for none.
func MethodOf(c Call) string {
	for k, m := range methods {
		if m == c.m && k.typ == c.tx.Type {
			return string(k.typ) + "/" + k.name
		}
	}
	return ""
}
