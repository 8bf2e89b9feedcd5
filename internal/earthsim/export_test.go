package earthsim

// GeneralStepOnly switches execLocal off (every instruction then runs through
// the general step) until the returned function restores the fast path.
func GeneralStepOnly() (restore func()) {
	generalStepOnly = true
	return func() { generalStepOnly = false }
}
