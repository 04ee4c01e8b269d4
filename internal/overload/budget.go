package overload

// retryBudget is a token bucket that caps retry traffic as a fraction of
// first-attempt traffic. Every first attempt deposits ratio tokens (up to the
// burst cap); every retry withdraws one. When the bucket is empty the retry
// is denied and the original error surfaces to the caller — the systematic
// version of "give up instead of amplifying the overload".
//
// The bound is the point: with ratio 1.0, retries can never exceed first
// attempts plus the burst, so total attempts stay near 2× offered load no
// matter how high the failure rate climbs. That cap is what breaks the
// metastable retry storm: under saturation the paper's ad-hoc retry loops
// multiply every failure back into the arrival stream, and the storm outlives
// the spike that started it.
type retryBudget struct {
	ratio, burst, tokens float64
}

// newRetryBudget builds a budget granting ratio retry tokens per first
// attempt, with the bucket capped at burst tokens. The bucket starts full so
// isolated failures retry immediately.
func newRetryBudget(ratio, burst float64) *retryBudget {
	return &retryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// onAttempt records one first attempt, depositing ratio tokens.
func (b *retryBudget) onAttempt() {
	b.tokens = min(b.tokens+b.ratio, b.burst)
}

// allow withdraws one token for a retry, reporting whether the retry may
// proceed.
func (b *retryBudget) allow() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
