// Command benchmark is the repository's end-to-end benchmark. It starts a
// real lpmserve built from the tree and drives it over loopback TCP from this
// one client process: two connections (one per CPU of the two-vCPU reference
// machine) and GOMAXPROCS=2 on both sides. Lookups go to the binary wire port
// and every answer is checked against the trie oracle. A separate traced run
// times calls into each layer's public functions in process and derives the
// per-layer metrics from the spans' self times.
//
// Run it from the repository root through run.sh, which builds both
// binaries into .bench_build/ first:
//
//	bash benchmark/run.sh --workload serve-zipf-40k --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Progress, per-process server
// counter deltas and the span ledger go to standard error.
//
// # Server
//
// Every workload runs one configuration:
//
//	lpmserve -bucket 8 -shards 4 -cache-bytes 65536 -wire-addr ...
//
// over a ripe-profile rule-set from internal/workload generated from the
// seed. The key pool and every key's oracle answer are computed before any
// timing starts (checking against the trie inside the loop cut a 1M-rule
// run from 1.45M to 0.61M keys/s).
//
// # Workloads
//
// serve-zipf-40k: 40K rules, single-key OpLookup frames on two pipelined
// connections, keys from the calibrated Zipf trace (workload.DefaultTrace:
// s=1.2, locality 0.6). The engine is cache-resident and about half the
// lookups hit lcache, so per-query cost sits in serve and wire: syscalls,
// wake-ups and the cross-connection coalescer. Offered rates 30K and 60K
// keys/s, about ¼ and ½ of the saturation lpmload measured (110–140K qps);
// below about 20K qps a sleep-paced generator ran late (see below).
//
// batch-uniform-1m: 1M rules (an engine of about 4.8 MB against a 4 MB L2),
// uniform keys in 256-key OpBatch frames on two connections. The coalescer
// and the result cache are both bypassed (lcache's adaptive bypass engages
// below 12.5% hits) and the serving cost is amortised over 256 keys, so
// time lands in shard, core, rqrmi and bucket; batch-plane or AMAC work
// shows here. Offered rates 180K and 360K keys/s, about ⅛ and ¼ of the
// 1.42–1.52M keys/s lpmload measured: at ½ (720K) the two vCPUs the client
// shares with the server ran near saturation and p50 moved by a third
// between runs.
//
// A third mix, churn-zipf-1m (Zipf reads at a fixed rate on one connection,
// about 100 updates/s to HTTP /update on the other), is not a workload here.
// It is kept in the package doc as the defect it would show: with lpmload at
// 30K qps plus 100 updates/s, read p50 was 190–320 ms against 0.70 ms with no
// updates, only 67–626 of about 1000 scheduled updates went out in 10 s, and
// some were refused with 429. Commit holds the shard's writer lock across the
// retrain (internal/shard/updatable.go, ShardedUpdatable.Commit) and training
// uses every core. Refused updates are failed operations, and a workload must
// not fail operations by design, so the mix waits for the fix. The update
// path's layers (ShardedUpdatable.Insert and Commit, the /update handler,
// lcache epoch invalidation) are still measured by every traced run.
//
// # Phases and end-to-end metrics (--trace 0)
//
// A run starts the server three times. Each start is timed, then the server
// is made to collect the garbage set-up left (GET /debug/pprof/heap?gc=1),
// warmed up with 0.5 s of closed loop, and run through rounds of three
// 0.5 s phases, each on fresh connections, in an order that rotates from
// round to round, before it drains on SIGTERM. The rounds share --seconds
// evenly between the three processes. Each phase continues through the key
// pool where the previous one stopped.
//
//   - sat: closed loop, a fixed window of frames in flight per connection
//     (32 single-key or 4 batch frames); keys answered per second.
//   - lo and hi: open loop at the workload's two fixed offered rates. Each
//     connection has its own Poisson schedule and each request is timed
//     from its due time, so a stall is charged to every request it delayed.
//
// End-to-end metrics:
//
//   - setup_s: exec to the first /healthz 200, median of the three starts.
//   - rss_mb: server VmRSS after the phases, median of the three starts.
//   - cpu_us_per_key_lo, cpu_us_per_key_hi: server utime+stime from
//     /proc/<pid>/stat over the calm phases (below) at that offered rate,
//     per key answered as the oracle did in them. This is the server's cost per
//     lookup; at the low rate it carries more of the wake-ups and
//     coalescer timer sleeps a lightly loaded server pays per request
//     (about 28 against 15 µs per key on serve-zipf-40k).
//
// A phase is calm when the hypervisor stole at most 2% of the machine's
// CPU time while it ran (read from /proc/stat around it); when fewer than
// half the phases of a kind were calm, the least-stolen half count. In a
// run that lost 16% of the CPU to steal, CPU per key read 10–15% low
// (requests queued behind each stall and were served in bigger batches).
// A run stolen from throughout (29–36%) read about 45% low even over its
// least-stolen half; nothing inside one run corrects that, so each
// process's line on standard error reports its steal share.
//
// Wall-clock figures are measured in the same phases and logged on
// standard error, but not reported: sat keys/s (with the server's CPU per
// key in the sat phases), and p50 and p90 latency from due time at lo and
// hi. Each phase gives one figure (its throughput, or a latency quantile
// over all of its requests), and the log line holds the interquartile mean
// over the run's calm phases. Each process's line also gives its steal
// share and p99.
//
// Why they are not reported: the reference machine is a shared two-vCPU
// VM whose wall-clock speed shifts under the benchmark with nothing in the
// guest changing. Within one server process, closed-loop throughput
// stepped from 208K to 384K keys/s between consecutive seconds with no
// steal, and every window depth moved together; open-loop p50 drifted by
// a third from one second to the next. Over ten seeds, with calm phases
// only, the interquartile spread as a share of the median was 0.21 and
// 0.23 for p50 at lo and hi on serve-zipf-40k, 0.20 and 0.29 for p90,
// 0.15 for sat keys/s, and 0.25 for p90 at hi on batch-uniform-1m,
// against a largest allowed bound of 0.25; runs that kept a steal of 5%
// or more through the whole run pushed batch p90 past a millisecond. The
// server's CPU time per key at the open-loop rates spread 0.03 (zipf) and
// 0.10 (batch): idle time is not charged to it. At saturation
// it spread 0.20 on serve-zipf-40k and rose as wall-clock throughput fell
// (3.8 µs per key at 232K keys/s, 4.8 µs at 190K), so it inherits the
// drift and is logged with sat keys/s instead.
//
// failed/attempted in the result line is fail_frac: transport errors,
// oracle mismatches and requests unanswered at drain, over all requests of
// every phase and warm-up. It is not an end-to-end metric because it must
// read 0. The run is correct when no answer differed from the oracle and
// the server's bucket fetches per bucketized lookup read exactly 1.0
// (paper §7); every start must exit 0 with a clean drain.
//
// # Traced run and per-layer metrics (--trace 1)
//
// One server start and a hi phase give the server- and client-side figures:
// serve.coalesce_batch_mean, shard.batch_mean and bucket.fetches_per_query
// from /metrics deltas, and load.gen_lag_p99_us and load.cpu_us_per_key from
// the client, which check that the generator kept up (a run whose generator
// ran late is invalid, not slow). Then, in process, the same rule file is
// parsed, converted, bucketed, trained and compiled (lpm.parse_s,
// ranges.convert_s, ranges.expansion, bucket.build_ms, rqrmi.train_s,
// rqrmi.compile_ms: they move setup_s), and shard.BuildUpdatable builds the
// served configuration.
//
// A traced request is a chunk of 256 consecutive pool keys. Within it one
// span wraps each call into a layer's public function over the chunk: the
// wire codec round trip (wire.codec_ns), lcache Get and Put (lcache.get_ns,
// lcache.hit_frac), ShardedUpdatable.LookupStack and LookupBatchStack on the
// served stack (shard.single_ns, shard.batch_ns_per_key), Engine.Lookup and
// LookupBatch (core.*), Compiled.Predict and Search (rqrmi.*) and
// Directory.Search (bucket.search_ns). The program has no spans inside it
// yet, so every layer span is a leaf and its self time is its duration; a
// layer's cost without the layers below it is the difference of two rows.
// As many other chunks run untraced, each just before its traced twin, and
// trace.overhead_frac is the traced pass's time over the untraced one's,
// minus one. An update pass then applies a churn stream from
// workload.GenerateUpdates alternately through
// ShardedUpdatable.Insert/Delete/ModifyAction (core.insert_us) and the
// /update handler's ServeHTTP (serve.http_update_us), reads a chunk through
// the result cache after each update (lcache.stale_frac), and commits every
// touched shard (shard.rebuild_ms). core.delta_full_frac is the share of
// inserts refused with a full delta buffer. Spans are kept in memory and
// written to .bench_build/spans-<workload>-<seed>.tsv at the end.
//
// trace.unaccounted_frac is the ledger gap: the share of the server's CPU
// per key (hi phase) that the in-process cost of the frame's path does not
// cover. That path is the wire codec plus the shard entry the server calls
// for the frame type (LookupStack for single keys, LookupBatchStack for
// batches).
//
// Which end-to-end metric each layer should move:
//
//   - lcache.*, serve.*, wire.codec_ns: cpu_us_per_key_lo and _hi (and the
//     logged latency) on serve-zipf-40k; no change on batch-uniform-1m.
//   - shard.*, core.*, rqrmi.*, bucket.*: cpu_us_per_key_lo and _hi (and
//     the logged sat keys/s) on batch-uniform-1m; little on serve-zipf-40k.
//     bucket.fetches_per_query must read 1.0.
//   - shard.rebuild_ms, rqrmi.train_s, core.insert_us, core.delta_full_frac:
//     update latency and failures under churn (the dropped mix).
//   - lpm.parse_s, ranges.*, bucket.build_ms, rqrmi.compile_ms,
//     rqrmi.train_s: setup_s on every workload.
//
// # Baseline observations
//
// Measured with lpmload and this benchmark on the two-vCPU reference
// machine before any change they motivate:
//
//   - Coalescer sleep cost: with the coalescer's window effectively 0
//     (-coalesce-window 1ns), p50 at 60K qps from due time was 178–210 µs
//     under lpmload; with the 20 µs default it was 331–358 µs, in two
//     alternating pairs. Saturation did not change.
//   - Generator lag: a sleep-paced generator ran 0.3–0.45 ms late at p50
//     below about 20K qps, because a Go runtime timer under 1 ms waits on
//     the netpoller's 1 ms granularity. This client paces with nanosleep on
//     a locked thread with 1 ns timer slack instead.
//   - Churn stall: see churn-zipf-1m above.
//   - Ledger gap: the in-process path covered about 3% of the server's CPU
//     per key on serve-zipf-40k (0.5 of 16 µs) and about 30% on
//     batch-uniform-1m (0.4 of 1.35 µs); the rest is spent outside the
//     layers' public functions (syscalls, wake-ups, scheduling).
package main
