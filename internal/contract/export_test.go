package contract

// SetDropAdoptedWrite installs the AdoptSpeculative mutation seam for a
// test: fn names the write keys materialisation skips. It returns the
// function that removes it.
func SetDropAdoptedWrite(fn func(StateKey) bool) (restore func()) {
	dropAdoptedWrite = fn
	return func() { dropAdoptedWrite = nil }
}
