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
