package shard

// SetSkipEpochCheck installs the router mutation seam for a test: during
// an epoch transition every System routes by the pending epoch alone. It
// returns the function that removes it.
func SetSkipEpochCheck() (restore func()) {
	skipEpochCheck = true
	return func() { skipEpochCheck = false }
}

// SetSkipLeaseExpiry installs the failover mutation seam for a test: no
// System's standby committee member bids for an expired lease. It
// returns the function that removes it.
func SetSkipLeaseExpiry() (restore func()) {
	skipLeaseExpiry = true
	return func() { skipLeaseExpiry = false }
}
