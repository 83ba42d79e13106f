package transport

import (
	"testing"
	"time"
)

// Full-jitter backoff in the session's retry loop.

func TestSleepForFullJitterCeilings(t *testing.T) {
	p := &PipelinedSession{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	p.jitter = func() float64 { return 0.5 } // midpoint draw makes ceilings visible
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{1, 5 * time.Millisecond},   // ceil 10ms
		{2, 10 * time.Millisecond},  // ceil 20ms
		{3, 20 * time.Millisecond},  // ceil 40ms
		{4, 40 * time.Millisecond},  // ceil 80ms (cap reached)
		{10, 40 * time.Millisecond}, // cap holds; no overflow from 2^10
	}
	for _, c := range cases {
		if got := p.sleepFor(c.attempt, 0); got != c.want {
			t.Errorf("sleepFor(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
}

func TestSleepForHonoursRetryHintFloor(t *testing.T) {
	p := &PipelinedSession{Backoff: 4 * time.Millisecond}
	p.jitter = func() float64 { return 0.25 }
	// Jittered draw (1ms) is below the server's hint: the hint wins.
	if got := p.sleepFor(1, 30*time.Millisecond); got != 30*time.Millisecond {
		t.Fatalf("floored sleep = %v, want 30ms", got)
	}
	// Jitter above the hint is kept (the hint is a minimum, not a target).
	p.jitter = func() float64 { return 0.75 }
	p.Backoff = 100 * time.Millisecond
	if got := p.sleepFor(1, 30*time.Millisecond); got != 75*time.Millisecond {
		t.Fatalf("sleep above floor = %v, want 75ms", got)
	}
}

func TestSleepForZeroBackoffSleepsNothing(t *testing.T) {
	p := &PipelinedSession{}
	p.jitter = func() float64 { t.Fatal("zero backoff must not draw jitter"); return 0 }
	if got := p.sleepFor(3, 0); got != 0 {
		t.Fatalf("zero-backoff sleep = %v, want 0", got)
	}
}

func TestSleepForDeterministicUnderSeededRand(t *testing.T) {
	mk := func() *PipelinedSession {
		p := &PipelinedSession{Backoff: 10 * time.Millisecond, MaxBackoff: time.Second}
		seq := []float64{0.1, 0.9, 0.4}
		i := 0
		p.jitter = func() float64 { v := seq[i%len(seq)]; i++; return v }
		return p
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 3; attempt++ {
		if da, db := a.sleepFor(attempt, 0), b.sleepFor(attempt, 0); da != db {
			t.Fatalf("attempt %d: %v != %v under identical seeds", attempt, da, db)
		}
	}
}
