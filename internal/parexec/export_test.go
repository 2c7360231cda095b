package parexec

// SetDropDAGEdge installs the buildWaves mutation seam for a test and
// returns the function that removes it. It reaches every ModeMVCCWave
// engine in the process, so a test that runs a cluster beside the
// mutated engine keeps the cluster's nodes on ModeSerial.
func SetDropDAGEdge() (restore func()) {
	dropDAGEdge = true
	return func() { dropDAGEdge = false }
}
