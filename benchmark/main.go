package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

// workloadSpec is one traffic mix. Rates are fixed constants, not
// fractions of a measured capacity, so a faster server shows as lower
// latency at the same offered load.
type workloadSpec struct {
	name    string
	rules   int
	uniform bool    // uniform keys; otherwise the calibrated Zipf trace
	batch   int     // keys per wire frame (1 = OpLookup frames)
	window  int     // closed loop: frames in flight per connection
	rateLo  float64 // offered keys/s, open-loop lo phase
	rateHi  float64 // offered keys/s, open-loop hi phase
	pool    int     // distinct keys, replayed in order
}

var workloads = []workloadSpec{
	{name: "serve-zipf-40k", rules: 40_000, batch: 1, window: 32,
		rateLo: 30_000, rateHi: 60_000, pool: 1 << 19},
	{name: "batch-uniform-1m", rules: 1_000_000, uniform: true, batch: 256, window: 4,
		rateLo: 180_000, rateHi: 360_000, pool: 1 << 20},
}

const (
	conns = 2 // one per CPU of the reference machine
	// starts is how many server processes a --trace 0 run starts; setup_s
	// is the median of their set-up times.
	starts = 3
	// slice is one measured phase. Latency on the shared reference machine
	// drifts by a third from one second to the next with nothing else
	// changing, so a run measures many short phases, each on fresh
	// connections, spread over its processes and its whole length.
	slice  = 500 * time.Millisecond
	warmup = 500 * time.Millisecond
	// maxSteal is the share of the machine's CPU time the hypervisor may
	// take during a phase before the phase is left out of the run's
	// figures (see calm).
	maxSteal = 0.02
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "traffic mix to run")
	seed := fs.Int64("seed", 1, "seed for rules, keys and arrival schedules")
	seconds := fs.Int("seconds", 30, "measured seconds per run, split over the phases")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	bin := fs.String("server", ".bench_build/bin/lpmserve", "lpmserve binary built from the tree")
	out := fs.String("out", ".bench_build", "directory for rule files, server logs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	// A --trace 0 run needs one round of three phases per process.
	minSeconds := int((3 * starts * slice).Seconds() + 0.999)
	if spec == nil || *seconds < minSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %v), -seconds ≥ %d, -trace 0|1\n", names(), minSeconds)
		return 2
	}
	b := &bench{spec: *spec, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, out: *out}
	var res result
	var err error
	if err = b.prepare(); err == nil {
		if *trace == 1 {
			res, err = b.traced()
		} else {
			res, err = b.endToEnd()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func names() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one run's generated inputs.
type bench struct {
	spec    workloadSpec
	seed    int64
	seconds time.Duration
	bin     string
	out     string

	rulesPath string
	pool      keyPool
	cursor    int // next frame slot; each phase starts where the last ended
}

// prepare generates the rule-set and key pool from the seed, writes the
// rule file the server loads, and computes every key's oracle answer.
func (b *bench) prepare() error {
	if _, err := os.Stat(b.bin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	rs, err := workload.Generate(workload.RIPE(), b.spec.rules, b.seed)
	if err != nil {
		return err
	}
	b.rulesPath = filepath.Join(b.out, fmt.Sprintf("rules-%s-%d.txt", b.spec.name, b.seed))
	if err := os.WriteFile(b.rulesPath, []byte(rs.Format()), 0o644); err != nil {
		return err
	}
	var ks []keys.Value
	if b.spec.uniform {
		ks = workload.UniformTrace(rs.Width, b.spec.pool, b.seed+1)
	} else if ks, err = workload.GenerateTrace(rs, workload.DefaultTrace(b.spec.pool, b.seed+1)); err != nil {
		return err
	}
	oracle := lpm.NewTrieMatcher(rs)
	want := make([]wire.Result, len(ks))
	for i, k := range ks {
		want[i].Action, want[i].Matched = oracle.Lookup(k)
	}
	b.pool = keyPool{keys: ks, want: want}
	return nil
}

// phase runs one load phase on fresh connections at rateKeys offered keys/s
// (0: closed loop). It counts toward the run's attempted and failed
// operations, and the next phase continues through the key pool.
func (b *bench) phase(srv *server, rateKeys float64, dur time.Duration, seed int64, acc *tally) (phaseStats, error) {
	cfg := loadConfig{
		addr: srv.wireAddr, conns: conns, batch: b.spec.batch,
		rate: rateKeys / float64(b.spec.batch), window: b.spec.window,
		dur: dur, seed: seed, offset: b.cursor,
	}
	st, err := runPhase(cfg, &b.pool)
	if err != nil {
		return phaseStats{}, err
	}
	b.cursor += st.attempted / conns
	acc.add(st.tally)
	if st.failed() > 0 {
		fmt.Fprintf(os.Stderr, "phase at %.0f keys/s: %d frames, %d failed (%d errors, %d mismatches, %d unanswered)\n",
			rateKeys, st.attempted, st.failed(), st.errors, st.mismatches, st.unanswered)
	}
	return st, nil
}

// serverSample is one scrape of the server's counters and CPU time.
type serverSample struct {
	m   map[string]float64
	cpu time.Duration
}

func sample(srv *server) (serverSample, error) {
	m, err := srv.metrics()
	if err != nil {
		return serverSample{}, err
	}
	cpu, err := srv.cpu()
	return serverSample{m: m, cpu: cpu}, err
}

// logDeltas prints one phase's server counter deltas.
func logDeltas(phase string, a, z serverSample) {
	d := func(n string) float64 { v, _ := counterDelta(a.m, z.m, n); return v }
	fmt.Fprintf(os.Stderr, "%s server: cpu %v, coalesce %.0f keys / %.0f dispatches, lcache hit %.0f miss %.0f stale %.0f bypassed %.0f, fetches %.0f / bucketized %.0f, rebuilds %.0f (%.0f ms)\n",
		phase, z.cpu-a.cpu,
		d("neurolpm_wire_coalesce_batch_size_sum"), d("neurolpm_wire_coalesce_batch_size_count"),
		d("neurolpm_lcache_hits_total"), d("neurolpm_lcache_misses_total"), d("neurolpm_lcache_stale_total"), d("neurolpm_lcache_bypassed_total"),
		d("neurolpm_bucket_fetches_total"), d("neurolpm_bucketized_lookups_total"),
		d("neurolpm_shard_rebuild_ms_count"), d("neurolpm_shard_rebuild_ms_sum"))
}

// fetchesPerQuery is the paper §7 invariant over a span of scrapes: every
// bucketized lookup issues exactly one bucket fetch.
func fetchesPerQuery(a, z serverSample) (float64, error) {
	return ratioDelta(a.m, z.m, "neurolpm_bucket_fetches_total", "neurolpm_bucketized_lookups_total")
}

// endToEnd is a --trace 0 run. It starts the server `starts` times; each
// start is timed for setup_s, warmed up, and then runs rounds of one sat,
// one lo and one hi phase of `slice` each, in rotating order, before it
// drains. setup_s and rss_mb are the median over the processes, and
// cpu_us_per_key_lo and _hi the server's CPU time over the run's calm
// phases at that rate per key answered in them. Each phase also gives one
// wall-clock figure (throughput, or a latency quantile over the phase's
// requests); their interquartile means over the calm phases are logged,
// with the server's CPU per key in the sat phases.
func (b *bench) endToEnd() (result, error) {
	logPath := filepath.Join(b.out, fmt.Sprintf("lpmserve-%s-%d.log", b.spec.name, b.seed))
	var acc tally
	var fig runFigures
	correct := true
	rounds := int(b.seconds / (3 * slice * starts))
	for i := 0; i < starts; i++ {
		srv, setup, err := startServer(b.bin, b.rulesPath, logPath)
		if err != nil {
			return result{}, err
		}
		fig.setup = append(fig.setup, setup.Seconds())
		ok, err := b.measure(srv, rounds, b.seed+int64(1000*i), &acc, &fig)
		if err != nil {
			srv.kill()
			return result{}, err
		}
		if err := srv.stop(); err != nil {
			return result{}, err
		}
		correct = correct && ok
	}
	fmt.Fprintf(os.Stderr, "setup_s %.3f\nfail_frac %.6f (%d of %d)\n", fig.setup, acc.failFrac(), acc.failed(), acc.attempted)
	sat, lo, hi := calm(fig.sat), calm(fig.lo), calm(fig.hi)
	us := func(ph []phaseFig, q func(phaseFig) float64) float64 { return iqmOf(ph, q) / 1e3 }
	fmt.Fprintf(os.Stderr, "logged, not reported: sat %.0f keys/s at %.2f server CPU us/key; us p50 lo %.1f hi %.1f, p90 lo %.1f hi %.1f; "+
		"calm phases: sat %d of %d, lo %d of %d, hi %d of %d\n",
		iqmOf(sat, phaseFig.qps), cpuPerKey(sat), us(lo, phaseFig.p50), us(hi, phaseFig.p50), us(lo, phaseFig.p90), us(hi, phaseFig.p90),
		len(sat), len(fig.sat), len(lo), len(fig.lo), len(hi), len(fig.hi))
	return result{
		Correct:   correct && acc.mismatches == 0,
		Attempted: acc.attempted,
		Failed:    acc.failed(),
		Metrics: map[string]metric{
			"setup_s":           {median(fig.setup), "s"},
			"rss_mb":            {median(fig.rss), "MiB"},
			"cpu_us_per_key_lo": {cpuPerKey(lo), "us"},
			"cpu_us_per_key_hi": {cpuPerKey(hi), "us"},
		},
	}, nil
}

// runFigures holds one run's figures, pooled over its server processes.
type runFigures struct {
	setup, rss  []float64  // one per process
	sat, lo, hi []phaseFig // one per phase
}

// phaseFig is one phase's figures and the share of the machine's CPU time
// the hypervisor stole while it ran.
type phaseFig struct {
	steal   float64
	cpu     time.Duration // server utime+stime over the phase
	keys    int           // keys answered as the oracle did
	keysSec float64       // closed loop: keys answered per second
	lat     [2]float64    // open loop: p50 and p90 from due time, ns
}

func (f phaseFig) qps() float64 { return f.keysSec }
func (f phaseFig) p50() float64 { return f.lat[0] }
func (f phaseFig) p90() float64 { return f.lat[1] }

// calm returns the phases the hypervisor took at most maxSteal of the
// machine from, or, when fewer than half of them were that calm, the
// least-stolen half. On the shared reference machine a phase that lost
// 5–30% of the CPU to steal ran several times slower in every wall-clock
// figure, and the server's CPU per key fell by 10–15% (requests queued
// behind the stall and were served in bigger batches); neither says
// anything about the program.
func calm(ph []phaseFig) []phaseFig {
	s := append([]phaseFig(nil), ph...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	n := (len(s) + 1) / 2
	for n < len(s) && s[n].steal <= maxSteal {
		n++
	}
	return s[:n]
}

// cpuPerKey is the server's CPU time per key answered over phases, in µs.
func cpuPerKey(ph []phaseFig) float64 {
	var cpu time.Duration
	keys := 0
	for _, p := range ph {
		cpu += p.cpu
		keys += p.keys
	}
	return float64(cpu.Nanoseconds()) / 1e3 / float64(keys)
}

// iqmOf is the interquartile mean of one figure over phases.
func iqmOf(ph []phaseFig, f func(phaseFig) float64) float64 {
	xs := make([]float64, len(ph))
	for i, p := range ph {
		xs[i] = f(p)
	}
	return iqm(xs)
}

// measure warms one server process up, runs its rounds of phases and adds
// their figures to fig. It reports false when the server's bucket fetches
// per bucketized lookup were not exactly 1.
func (b *bench) measure(srv *server, rounds int, seed int64, acc *tally, fig *runFigures) (bool, error) {
	if err := srv.collect(); err != nil {
		return false, err
	}
	if _, err := b.phase(srv, 0, warmup, seed, acc); err != nil {
		return false, err
	}
	s0, err := sample(srv)
	if err != nil {
		return false, err
	}
	ticks0 := readCPUTicks()
	rates := [3]float64{0, b.spec.rateLo, b.spec.rateHi}
	kinds := [3]string{"sat", "lo", "hi"}
	var mine [3][]phaseFig
	var lag []int64
	var p99 [3][]float64
	for r := 0; r < rounds; r++ {
		for j := 0; j < 3; j++ {
			k := (r + j) % 3
			cpu0, err := srv.cpu()
			if err != nil {
				return false, err
			}
			t0 := readCPUTicks()
			st, err := b.phase(srv, rates[k], slice, seed+int64(3*r+k+1), acc)
			if err != nil {
				return false, err
			}
			f := phaseFig{steal: readCPUTicks().since(t0), keys: st.keys}
			cpu1, err := srv.cpu()
			if err != nil {
				return false, err
			}
			f.cpu = cpu1 - cpu0
			if st.keys == 0 {
				return false, fmt.Errorf("no keys answered in a %s phase", kinds[k])
			}
			if k == 0 {
				f.keysSec = float64(st.keys) / slice.Seconds()
			} else {
				lag = append(lag, st.lag...)
				p99[k] = append(p99[k], float64(quantile(st.lat, 0.99)))
				f.lat = [2]float64{float64(quantile(st.lat, 0.5)), float64(quantile(st.lat, 0.9))}
			}
			mine[k] = append(mine[k], f)
		}
	}
	fig.sat = append(fig.sat, mine[0]...)
	fig.lo = append(fig.lo, mine[1]...)
	fig.hi = append(fig.hi, mine[2]...)
	steal := readCPUTicks().since(ticks0)
	s1, err := sample(srv)
	if err != nil {
		return false, err
	}
	logDeltas("process", s0, s1)
	rss, err := srv.rssMB()
	if err != nil {
		return false, err
	}
	fig.rss = append(fig.rss, rss)
	fpq, err := fetchesPerQuery(s0, s1)
	if err != nil {
		return false, err
	}
	us := func(ph []phaseFig, q func(phaseFig) float64) float64 { return iqmOf(ph, q) / 1e3 }
	fmt.Fprintf(os.Stderr, "process: %d rounds; sat %.0f keys/s; us p50 lo %.0f hi %.0f, p90 lo %.0f hi %.0f, p99 lo %.0f hi %.0f; "+
		"generator lag p99 %.1f us; fetches per query %v; machine steal %.3f\n",
		rounds, iqmOf(mine[0], phaseFig.qps), us(mine[1], phaseFig.p50), us(mine[2], phaseFig.p50),
		us(mine[1], phaseFig.p90), us(mine[2], phaseFig.p90),
		iqm(p99[1])/1e3, iqm(p99[2])/1e3, float64(quantile(lag, 0.99))/1e3, fpq, steal)
	return fpq == 1, nil
}

// traced is a --trace 1 run: one server start and a hi phase for the
// server-side and client-side counters, then the in-process traced run.
func (b *bench) traced() (result, error) {
	logPath := filepath.Join(b.out, fmt.Sprintf("lpmserve-%s-%d-traced.log", b.spec.name, b.seed))
	srv, _, err := startServer(b.bin, b.rulesPath, logPath)
	if err != nil {
		return result{}, err
	}
	var acc tally
	var h0 serverSample
	var hi phaseStats
	err = srv.collect()
	if err == nil {
		_, err = b.phase(srv, b.spec.rateHi, warmup, b.seed+300, &acc)
	}
	if err == nil {
		h0, err = sample(srv)
	}
	if err == nil {
		hi, err = b.phase(srv, b.spec.rateHi, b.seconds/3, b.seed+301, &acc)
	}
	var h1 serverSample
	if err == nil {
		h1, err = sample(srv)
	}
	if err != nil {
		srv.kill()
		return result{}, err
	}
	if err := srv.stop(); err != nil {
		return result{}, err
	}
	logDeltas("hi", h0, h1)
	hiKeys := hi.keys
	if hiKeys <= 0 {
		return result{}, fmt.Errorf("no answered requests in the hi phase")
	}
	ratio := func(num, den string) float64 { v, _ := ratioDelta(h0.m, h1.m, num, den); return v }
	fpq, err := fetchesPerQuery(h0, h1)
	if err != nil {
		return result{}, err
	}
	serverNsPerKey := float64((h1.cpu - h0.cpu).Nanoseconds()) / float64(hiKeys)

	t := &tracedRun{pool: &b.pool, rules: b.rulesPath, seed: b.seed}
	if err := t.run(); err != nil {
		return result{}, err
	}
	spanPath := filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.tsv", b.spec.name, b.seed))
	if err := writeSpans(spanPath, t.tr.spans); err != nil {
		return result{}, err
	}
	cost := selfTimes(t.tr.spans)
	printLedger(t.tr.spans, cost)

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("ranges.expansion", "ratio", t.expansion)
	set("rqrmi.max_err", "entries", t.maxErr)
	set("rqrmi.probes_mean", "probes", t.probesMean)
	set("lcache.hit_frac", "ratio", t.hitFrac)
	set("lcache.stale_frac", "ratio", t.staleFrac)
	set("core.delta_full_frac", "ratio", t.deltaFullFrac)
	set("trace.overhead_frac", "ratio", t.overheadFrac)
	set("lcache.get_ns", "ns", cost["lcache.get"].perKey())
	set("serve.coalesce_batch_mean", "keys", ratio("neurolpm_wire_coalesce_batch_size_sum", "neurolpm_wire_coalesce_batch_size_count"))
	set("serve.http_update_us", "us", cost["serve.http_update"].perCall()/1e3)
	set("wire.codec_ns", "ns", cost["wire.codec_single"].perKey())
	set("shard.single_ns", "ns", cost["shard.single"].perKey())
	set("shard.batch_ns_per_key", "ns", cost["shard.batch"].perKey())
	set("shard.batch_mean", "keys", ratio("neurolpm_shard_batch_keys_total", "neurolpm_shard_batches_total"))
	set("core.single_ns", "ns", cost["core.single"].perKey())
	set("core.batch_ns_per_key", "ns", cost["core.batch"].perKey())
	set("rqrmi.predict_ns", "ns", cost["rqrmi.predict"].perKey())
	set("rqrmi.search_ns", "ns", cost["rqrmi.search"].perKey())
	set("bucket.search_ns", "ns", cost["bucket.search"].perKey())
	set("bucket.fetches_per_query", "fetches", fpq)
	set("shard.rebuild_ms", "ms", cost["shard.commit"].perCall()/1e6)
	set("rqrmi.train_s", "s", cost["rqrmi.train"].perCall()/1e9)
	set("core.insert_us", "us", cost["core.insert"].perCall()/1e3)
	set("lpm.parse_s", "s", cost["lpm.parse"].perCall()/1e9)
	set("ranges.convert_s", "s", cost["ranges.convert"].perCall()/1e9)
	set("bucket.build_ms", "ms", cost["bucket.build"].perCall()/1e6)
	set("rqrmi.compile_ms", "ms", cost["rqrmi.compile"].perCall()/1e6)
	set("load.gen_lag_p99_us", "us", float64(quantile(hi.lag, 0.99))/1e3)
	set("load.cpu_us_per_key", "us", float64(hi.clientCPU.Nanoseconds())/1e3/float64(hiKeys))

	// The ledger: the in-process cost of the path the workload's frames
	// take on the server (codec plus the shard router entry the server
	// calls for that frame type), against the server's CPU per key.
	covered := cost["wire.codec_single"].perKey() + cost["shard.single"].perKey()
	if b.spec.batch > 1 {
		covered = cost["wire.codec_batch"].perKey() + cost["shard.batch"].perKey()
	}
	set("trace.unaccounted_frac", "ratio", 1-covered/serverNsPerKey)
	fmt.Fprintf(os.Stderr, "ledger: server %.0f ns/key, covered in process %.0f ns/key; spans in %s\n",
		serverNsPerKey, covered, spanPath)

	acc.attempted += t.attempted
	acc.mismatches += t.mismatch
	return result{
		Correct:   acc.mismatches == 0 && fpq == 1,
		Attempted: acc.attempted,
		Failed:    acc.failed(),
		Metrics:   m,
	}, nil
}

// printLedger logs every span name's self time per key and per call, in
// the order the names first appear.
func printLedger(spans []span, cost map[string]layerCost) {
	seen := make(map[string]bool)
	for _, sp := range spans {
		if seen[sp.name] {
			continue
		}
		seen[sp.name] = true
		c := cost[sp.name]
		fmt.Fprintf(os.Stderr, "  %-20s %8d calls %12.1f ns/key %14.0f ns/call\n", sp.name, c.calls, c.perKey(), c.perCall())
	}
}
