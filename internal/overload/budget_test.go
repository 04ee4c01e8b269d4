package overload

import "testing"

// TestRetryBudgetCapsRetries: a fresh bucket grants exactly its burst, and
// with ratio 1.0 total grants can never exceed first attempts plus the burst.
func TestRetryBudgetCapsRetries(t *testing.T) {
	b := newRetryBudget(1.0, 5)
	granted, denied := 0, 0
	drain := func() {
		for i := 0; i < 100; i++ {
			if b.allow() {
				granted++
			} else {
				denied++
			}
		}
	}
	drain()
	if granted != 5 {
		t.Fatalf("fresh bucket should grant exactly its burst (5), granted %d", granted)
	}
	// 10 first attempts deposit 10 tokens, but the bucket holds at most 5.
	for i := 0; i < 10; i++ {
		b.onAttempt()
	}
	drain()
	if granted != 10 {
		t.Fatalf("bucket capped at burst 5: expected 10 total grants, got %d", granted)
	}
	if denied == 0 {
		t.Error("expected denials once the bucket drained")
	}
	if amp := float64(10+granted) / 10; amp > 2.0 {
		t.Errorf("ratio-1.0 budget must keep amplification ≤ 2, got %.2f", amp)
	}
}
