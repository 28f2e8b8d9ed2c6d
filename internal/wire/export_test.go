package wire

// SetPoisonPuts switches PutBuf's use-after-recycle poisoning for this
// package's tests.
func SetPoisonPuts(on bool) { poisonPuts = on }
