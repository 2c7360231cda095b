package chain

// SetSkipVoteVerify installs the vote-ingress mutation seam for a test:
// every node of every cluster accepts any vote signature. It returns the
// function that removes it.
func SetSkipVoteVerify() (restore func()) {
	skipVoteVerify = true
	return func() { skipVoteVerify = false }
}

// SetSkipRootCheck installs the state-root mutation seam for a test:
// every node votes for and accepts a block whatever root its own
// execution reached. It returns the function that removes it.
func SetSkipRootCheck() (restore func()) {
	skipRootCheck = true
	return func() { skipRootCheck = false }
}

// SetSkipCertQuorum installs the certificate mutation seam for a test:
// every node commits the block it executed on one vote short of 2f+1
// and accepts any seal. It returns the function that removes it.
func SetSkipCertQuorum() (restore func()) {
	skipCertQuorum = true
	return func() { skipCertQuorum = false }
}
