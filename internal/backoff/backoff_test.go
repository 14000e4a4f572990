package backoff

import (
	"context"
	"testing"
	"time"
)

func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 2 * time.Millisecond, Max: 100 * time.Millisecond}
	for attempt, wantCeil := range []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
	} {
		for i := 0; i < 64; i++ {
			d := p.Delay(attempt)
			if d < wantCeil/2 || d > wantCeil {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, wantCeil/2, wantCeil)
			}
		}
	}
	// Far past the doubling range the ceiling pins at Max.
	for i := 0; i < 64; i++ {
		if d := p.Delay(50); d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("capped delay %v outside [50ms, 100ms]", d)
		}
	}
}

func TestZeroPolicyUsesDefaults(t *testing.T) {
	var p Policy
	if d := p.Delay(0); d <= 0 || d > DefaultBase {
		t.Fatalf("zero policy first delay %v outside (0, %v]", d, DefaultBase)
	}
	if c := p.ceiling(100); c != DefaultMax {
		t.Fatalf("zero policy ceiling = %v, want %v", c, DefaultMax)
	}
}

func TestDelayJitters(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second}
	seen := make(map[time.Duration]bool)
	for i := 0; i < 128; i++ {
		seen[p.Delay(3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("128 draws produced %d distinct delays; jitter missing", len(seen))
	}
}

func TestSleepHonorsContext(t *testing.T) {
	p := Policy{Base: time.Hour, Max: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Sleep(ctx, 0); err != context.Canceled {
		t.Fatalf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestBudgetDeniesWhenDrained(t *testing.T) {
	b := NewBudget(0.5, 2)
	if !b.Allow() || !b.Allow() {
		t.Fatal("full budget denied a retry")
	}
	if b.Allow() {
		t.Fatal("drained budget allowed a retry")
	}
	// Two successes earn one token back.
	b.Success()
	b.Success()
	if !b.Allow() {
		t.Fatal("replenished budget denied a retry")
	}
	if b.Allow() {
		t.Fatal("budget allowed more retries than earned")
	}
}

func TestBudgetZeroValueAndNil(t *testing.T) {
	var b Budget // zero value starts full with defaults
	if !b.Allow() {
		t.Fatal("zero-value budget denied its first retry")
	}
	var nb *Budget
	if !nb.Allow() {
		t.Fatal("nil budget must always allow")
	}
	nb.Success() // must not panic
}

func TestBudgetCapsAtBurst(t *testing.T) {
	b := NewBudget(1, 3)
	for i := 0; i < 100; i++ {
		b.Success()
	}
	if got := b.Remaining(); got != 3 {
		t.Fatalf("Remaining = %v, want burst cap 3", got)
	}
}
