package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {0.991, 100}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %d, want 0", got)
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("quantile(one sample) = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestPoissonScheduleMeanRate(t *testing.T) {
	const rate = 50_000.0
	dur := 4 * time.Second
	s := poissonSchedule(rate, dur, rand.New(rand.NewSource(1)))
	// n ~ Poisson(rate·dur) = 200000 ± 447; allow 5 σ.
	want := rate * dur.Seconds()
	if d := math.Abs(float64(len(s)) - want); d > 5*math.Sqrt(want) {
		t.Errorf("%d arrivals in %v at %v/s, want %v ± %v", len(s), dur, rate, want, 5*math.Sqrt(want))
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("schedule not sorted at %d: %v < %v", i, s[i], s[i-1])
		}
	}
	if len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= dur) {
		t.Errorf("schedule leaves [0, %v): first %v last %v", dur, s[0], s[len(s)-1])
	}
	// Exponential gaps: the coefficient of variation of the gaps is 1.
	var sum, sq float64
	for i := 1; i < len(s); i++ {
		g := float64(s[i] - s[i-1])
		sum += g
		sq += g * g
	}
	n := float64(len(s) - 1)
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if cv < 0.97 || cv > 1.03 {
		t.Errorf("inter-arrival CV %.3f, want ≈ 1 (exponential gaps)", cv)
	}
	again := poissonSchedule(rate, dur, rand.New(rand.NewSource(1)))
	if len(again) != len(s) || again[len(s)/2] != s[len(s)/2] {
		t.Error("same seed gave a different schedule")
	}
	if poissonSchedule(0, dur, rand.New(rand.NewSource(1))) != nil {
		t.Error("rate 0 should schedule nothing")
	}
}

func TestTallyFailFrac(t *testing.T) {
	var acc tally
	acc.add(tally{attempted: 1000})
	if acc.failed() != 0 || acc.failFrac() != 0 {
		t.Fatalf("clean phase: failed %d frac %v", acc.failed(), acc.failFrac())
	}
	acc.add(tally{attempted: 1000, errors: 2, mismatches: 3, unanswered: 5})
	if acc.attempted != 2000 || acc.failed() != 10 {
		t.Fatalf("attempted %d failed %d, want 2000 and 10", acc.attempted, acc.failed())
	}
	if got := acc.failFrac(); got != 0.005 {
		t.Errorf("fail_frac %v, want 0.005", got)
	}
	if (tally{}).failFrac() != 0 {
		t.Error("fail_frac of nothing attempted should be 0")
	}
}

func TestIQM(t *testing.T) {
	// The middle half of 1..8 is 3..6; the outliers at either end drop out.
	if got := iqm([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Errorf("iqm(1..8) = %v, want 4.5", got)
	}
	// A bimodal sample averages its two regimes.
	if got := iqm([]float64{100, 100, 100, 100, 200, 200, 200, 200}); got != 150 {
		t.Errorf("iqm(bimodal) = %v, want 150", got)
	}
	if got := iqm([]float64{1000, 5, 5, 5}); got != 5 {
		t.Errorf("iqm with one outlier = %v, want 5", got)
	}
}

func TestParseMetricsAndDeltas(t *testing.T) {
	scrape := func(hits, misses, sum, count string) map[string]float64 {
		t.Helper()
		text := strings.Join([]string{
			"# HELP neurolpm_lcache_hits_total Result-cache hits",
			"# TYPE neurolpm_lcache_hits_total counter",
			"neurolpm_lcache_hits_total " + hits,
			"neurolpm_lcache_misses_total " + misses,
			`neurolpm_wire_coalesce_batch_size_bucket{le="+Inf"} ` + count,
			"neurolpm_wire_coalesce_batch_size_sum " + sum,
			"neurolpm_wire_coalesce_batch_size_count " + count,
			"neurolpm_bucket_fetches_per_query 1",
			"",
		}, "\n")
		m, err := parseMetrics(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := scrape("10", "5", "100", "50")
	z := scrape("40", "25", "460", "140")
	if got := a[`neurolpm_wire_coalesce_batch_size_bucket{le="+Inf"}`]; got != 50 {
		t.Errorf("labelled sample = %v, want 50", got)
	}
	if d, err := counterDelta(a, z, "neurolpm_lcache_hits_total"); err != nil || d != 30 {
		t.Errorf("hits delta = %v, %v; want 30", d, err)
	}
	if r, err := ratioDelta(a, z, "neurolpm_wire_coalesce_batch_size_sum", "neurolpm_wire_coalesce_batch_size_count"); err != nil || r != 4 {
		t.Errorf("coalesce mean = %v, %v; want 4", r, err)
	}
	if r, err := ratioDelta(a, a, "neurolpm_lcache_hits_total", "neurolpm_lcache_misses_total"); err != nil || r != 0 {
		t.Errorf("ratio over an empty interval = %v, %v; want 0", r, err)
	}
	if _, err := counterDelta(a, z, "neurolpm_absent_total"); err == nil {
		t.Error("missing counter should be an error")
	}
	if _, err := counterDelta(z, a, "neurolpm_lcache_hits_total"); err == nil {
		t.Error("a counter going backwards should be an error")
	}
	if _, err := parseMetrics(strings.NewReader("neurolpm_x notanumber\n")); err == nil {
		t.Error("malformed value should be an error")
	}
}

func TestParseStatCPU(t *testing.T) {
	// comm with a space and a parenthesis; utime 250 and stime 50 ticks.
	line := "4242 (lpm serve) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 8 0 123 456 789"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1")); err == nil {
		t.Error("short stat line should be an error")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "request", req: 0, id: 0, parent: -1, start: 0, end: 100, keys: 10},
		{name: "shard.single", req: 0, id: 1, parent: 0, start: 10, end: 50, keys: 10},
		{name: "core.single", req: 0, id: 2, parent: 0, start: 50, end: 80, keys: 10},
		{name: "request", req: 1, id: 3, parent: -1, start: 100, end: 150, keys: 10},
		{name: "shard.single", req: 1, id: 4, parent: 3, start: 100, end: 140, keys: 10},
	}
	c := selfTimes(spans)
	if got := c["request"]; got.selfNs != 30+10 || got.calls != 2 || got.keys != 20 {
		t.Errorf("request self %+v, want 40 ns over 2 calls, 20 keys", got)
	}
	if got := c["shard.single"].perKey(); got != 4 {
		t.Errorf("shard.single per key = %v, want 4", got)
	}
	if got := c["core.single"].perCall(); got != 30 {
		t.Errorf("core.single per call = %v, want 30", got)
	}
}

func TestCalmDropsStolenPhases(t *testing.T) {
	ph := []phaseFig{{steal: 0}, {steal: 0.05}, {steal: 0.01}, {steal: 0.3}, {steal: 0.02}}
	if got := calm(ph); len(got) != 3 || got[0].steal != 0 || got[1].steal != 0.01 || got[2].steal != 0.02 {
		t.Errorf("calm kept %v, want the three phases at or under %v", got, maxSteal)
	}
	// When most phases lost CPU to steal, the least-stolen half counts.
	ph = []phaseFig{{steal: 0.4}, {steal: 0.1}, {steal: 0.3}, {steal: 0.2}}
	if got := calm(ph); len(got) != 2 || got[0].steal != 0.1 || got[1].steal != 0.2 {
		t.Errorf("calm kept %v, want the two least stolen", got)
	}
}
