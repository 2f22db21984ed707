package blaze_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"blaze"
)

// formatResilience renders r in the knob vocabulary ParseResilience
// accepts ("retries=3,backoff=2ms,..."), emitting only the fields that
// differ from the zero value: the zero value renders as "".
func formatResilience(r blaze.Resilience) string {
	var parts []string
	if r.MaxTaskRetries != 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", r.MaxTaskRetries))
	}
	if r.MaxFetchRetries != 0 {
		parts = append(parts, fmt.Sprintf("fetch-retries=%d", r.MaxFetchRetries))
	}
	if r.RetryBackoff != 0 {
		parts = append(parts, fmt.Sprintf("backoff=%s", r.RetryBackoff))
	}
	if r.SpeculativeMultiple != 0 {
		parts = append(parts, fmt.Sprintf("spec=%s", strconv.FormatFloat(r.SpeculativeMultiple, 'g', -1, 64)))
	}
	if r.BlacklistAfter != 0 {
		parts = append(parts, fmt.Sprintf("blacklist=%d", r.BlacklistAfter))
	}
	if r.BlacklistCooldown != 0 {
		parts = append(parts, fmt.Sprintf("cooldown=%d", r.BlacklistCooldown))
	}
	return strings.Join(parts, ",")
}

// TestResilienceStringRoundTrip property-tests that ParseResilience
// inverts formatResilience for any field combination: a config rendered
// in the knob vocabulary (CLI flags, HTTP payloads) parses back to
// itself.
func TestResilienceStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() blaze.Resilience {
		var r blaze.Resilience
		if rng.Intn(2) == 0 {
			r.MaxTaskRetries = rng.Intn(7) - 1 // -1 (disabled) .. 5
		}
		if rng.Intn(2) == 0 {
			r.MaxFetchRetries = rng.Intn(5) - 1
		}
		if rng.Intn(2) == 0 {
			r.RetryBackoff = time.Duration(1+rng.Intn(5000)) * time.Microsecond
		}
		if rng.Intn(2) == 0 {
			r.SpeculativeMultiple = 1 + float64(rng.Intn(40))/10
		}
		if rng.Intn(2) == 0 {
			r.BlacklistAfter = 1 + rng.Intn(5)
		}
		if rng.Intn(2) == 0 {
			r.BlacklistCooldown = 1 + rng.Intn(5)
		}
		return r
	}
	for i := 0; i < 500; i++ {
		want := gen()
		s := formatResilience(want)
		got, err := blaze.ParseResilience(s)
		if err != nil {
			t.Fatalf("ParseResilience(%q) (from %+v): %v", s, want, err)
		}
		if got != want {
			t.Fatalf("round trip: %+v -> %q -> %+v", want, s, got)
		}
	}
	// The zero value renders empty and parses back to the zero value.
	var zero blaze.Resilience
	if got, err := blaze.ParseResilience(""); err != nil || got != zero {
		t.Fatalf("ParseResilience(\"\") = %+v, %v", got, err)
	}
}

// TestFaultClassesStringRoundTrip property-tests that ParseFaultClasses
// inverts the comma-joined class names for any duplicate-free class list
// in any order.
func TestFaultClassesStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all := blaze.AllFaultClasses()
	for i := 0; i < 500; i++ {
		perm := rng.Perm(len(all))
		n := rng.Intn(len(all) + 1)
		var classes []blaze.FaultClass
		for _, j := range perm[:n] {
			classes = append(classes, all[j])
		}
		names := make([]string, len(classes))
		for i, c := range classes {
			names[i] = c.String()
		}
		s := strings.Join(names, ",")
		got, err := blaze.ParseFaultClasses(s)
		if err != nil {
			t.Fatalf("ParseFaultClasses(%q): %v", s, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(classes) {
			t.Fatalf("round trip: %v -> %q -> %v", classes, s, got)
		}
	}
}
