package guard

import (
	"fmt"
	"sync"
	"testing"
)

func TestOverloadStateMachineHysteresis(t *testing.T) {
	a := NewAdmission(AdmissionConfig{}) // defaults: shed 0.75/0.50, saturate 0.92/0.75
	steps := []struct {
		fill float64
		want OverloadState
	}{
		{0.00, StateHealthy},
		{0.74, StateHealthy},   // below ShedAt
		{0.75, StateShedding},  // engage
		{0.60, StateShedding},  // hysteresis: above release, stays
		{0.49, StateHealthy},   // below ShedReleaseAt
		{0.95, StateSaturated}, // straight through to saturated
		{0.80, StateSaturated}, // above SaturateReleaseAt, stays
		{0.70, StateShedding},  // relaxes one level
		{0.10, StateHealthy},   // and all the way down
	}
	for i, s := range steps {
		if got := a.State(s.fill); got != s.want {
			t.Fatalf("step %d: fill %.2f => %s, want %s", i, s.fill, got, s.want)
		}
	}
	// healthy→shedding, →healthy, →saturated, →shedding, →healthy.
	if got := a.Stats().Transitions; got != 5 {
		t.Fatalf("transitions = %d, want 5", got)
	}
}

func TestSheddingDropsLowestClassFirst(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	// Shedding: bulk rejected, normal and critical admitted.
	if d := a.Decide("c1", ClassBulk, 100, 0.80); d.Admit || d.Reason != RejectShedding {
		t.Fatalf("bulk under shedding: %+v", d)
	}
	if d := a.Decide("c1", ClassBulk, 100, 0.80); d.RetryAfter <= 0 {
		t.Fatalf("shed rejection carries no retry-after hint: %+v", d)
	}
	if d := a.Decide("c1", ClassNormal, 100, 0.80); !d.Admit {
		t.Fatalf("normal under shedding rejected: %+v", d)
	}
	// Saturated: everything sub-critical rejected.
	if d := a.Decide("c1", ClassNormal, 100, 0.95); d.Admit || d.Reason != RejectSaturated {
		t.Fatalf("normal under saturation: %+v", d)
	}
	if d := a.Decide("c1", ClassBulk, 100, 0.95); d.Admit || d.Reason != RejectSaturated {
		t.Fatalf("bulk under saturation: %+v", d)
	}
	// Critical bypasses every state.
	if d := a.Decide("c1", ClassCritical, 100, 0.99); !d.Admit {
		t.Fatalf("critical under saturation rejected: %+v", d)
	}
	st := a.Stats()
	if st.AdmittedCritical != 1 {
		t.Fatalf("AdmittedCritical = %d, want 1", st.AdmittedCritical)
	}
	if st.Rejected[RejectShedding] != 2 || st.Rejected[RejectSaturated] != 2 {
		t.Fatalf("rejection breakdown %v", st.Rejected)
	}
}

func TestZeroValueConfigHasNoRateLimits(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	for i := 0; i < 10_000; i++ {
		if d := a.Decide("flood", ClassBulk, 1<<20, 0.1); !d.Admit {
			t.Fatalf("zero-value config rejected tx %d: %+v", i, d)
		}
	}
	if got := a.Stats().Admitted; got != 10_000 {
		t.Fatalf("admitted = %d", got)
	}
}

// TestDecideIsConcurrencySafe hammers one controller from several
// goroutines with fills that swing it through every state, beside
// State and Stats readers; the assertion is the race detector's, plus
// the counters adding up.
func TestDecideIsConcurrencySafe(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fill := float64(i%100) / 100
				a.Decide(fmt.Sprintf("client-%d", g), Class(i%3), 64, fill)
				a.State(fill)
				a.Stats()
			}
		}(g)
	}
	wg.Wait()
	st := a.Stats()
	rejected := int64(0)
	for _, n := range st.Rejected {
		rejected += n
	}
	if st.Admitted+rejected != workers*each {
		t.Fatalf("admitted %d + rejected %d != %d decisions", st.Admitted, rejected, workers*each)
	}
	if st.Transitions == 0 {
		t.Fatal("fills from 0 to 0.99 never moved the state machine")
	}
}
