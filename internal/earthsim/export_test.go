package earthsim

// GeneralStepOnly switches execLocal off (every instruction then runs through
// the general step) until the returned function restores the fast path.
func GeneralStepOnly() (restore func()) {
	generalStepOnly = true
	return func() { generalStepOnly = false }
}

// HopKey is hopKey, exported to the external tests.
type HopKey = hopKey

// RecordDrops collects every hop's drop decision until the returned
// function stops the recording and returns them.
func RecordDrops() (stop func() map[HopKey]bool) {
	hops := map[HopKey]bool{}
	dropLog = func(k hopKey, dropped bool) { hops[k] = dropped }
	return func() map[HopKey]bool {
		dropLog = nil
		return hops
	}
}

// Attempt is the transmission attempt the hop belongs to.
func (k hopKey) Attempt() int { return k.attempt }
