package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"neurolpm/internal/bucket"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

const (
	// chunkKeys is one traced request: a run of consecutive pool keys that
	// every layer call in the request covers. Timing a chunk rather than a
	// key keeps two clock reads per span small against the calls they time.
	chunkKeys = 256
	// tracedChunks is how many requests each pass of the traced run makes.
	tracedChunks = 1024
	// tracedUpdates is the length of the in-process update stream; one
	// chunk of cached reads follows each update (about the 1:300 update to
	// read ratio of 100 updates/s beside 30K reads/s).
	tracedUpdates = 128
	updateSites   = 16
)

// servedStack is the stack lpmserve serves with -cache-bytes: compiled
// inference behind the result cache.
var servedStack = plane.StackConfig{Cached: true}

// tracedRun is the in-process half of a --trace 1 run: it rebuilds the
// server's engine from the same rule file, times calls into each layer's
// public functions on the workload's keys, and derives the per-layer
// metrics from the spans' self times.
type tracedRun struct {
	pool  *keyPool
	rules string // rule file path
	seed  int64

	tr        *tracer
	rs        *lpm.RuleSet // parsed from the rule file
	sh        *shard.ShardedUpdatable
	handler   http.Handler
	shardOf   []int // per pool key
	engs      []*core.Engine
	mismatch  int
	attempted int

	// Figures the traced passes compute directly rather than from spans.
	expansion, maxErr, hitFrac, probesMean float64
	staleFrac, deltaFullFrac, overheadFrac float64
}

// run executes every traced phase.
func (t *tracedRun) run() error {
	t.tr = newTracer(true)
	if err := t.setupLayers(); err != nil {
		return err
	}
	defer t.sh.Close()
	untraced, traced := t.readPasses()
	t.overheadFrac = float64(traced)/float64(untraced) - 1
	return t.updatePass()
}

// setupLayers times the build pipeline layer by layer over the whole rule
// file (parse, range conversion, bucketing, training, compilation), then
// builds the served configuration — four updatable shards with the result
// cache — whose queries the later passes time.
func (t *tracedRun) setupLayers() error {
	text, err := os.ReadFile(t.rules)
	if err != nil {
		return err
	}
	const req = -1
	sp := t.tr.begin("lpm.parse", req, -1, 0)
	rs, err := lpm.ParseRuleSet(32, string(text))
	t.tr.end(sp)
	if err != nil {
		return err
	}
	t.rs = rs
	sp = t.tr.begin("ranges.convert", req, -1, 0)
	ra, err := ranges.Convert(rs)
	t.tr.end(sp)
	if err != nil {
		return err
	}
	t.expansion = float64(ra.Len()) / float64(rs.Len())
	sp = t.tr.begin("bucket.build", req, -1, 0)
	dir, err := bucket.Build(ra, 8)
	t.tr.end(sp)
	if err != nil {
		return err
	}
	sp = t.tr.begin("rqrmi.train", req, -1, 0)
	model, _, err := rqrmi.Train(dir, rs.Width, rqrmi.DefaultConfig())
	t.tr.end(sp)
	if err != nil {
		return err
	}
	sp = t.tr.begin("rqrmi.compile", req, -1, 0)
	_, err = rqrmi.Compile(model, dir)
	if err == nil {
		_, err = rqrmi.CompileQuantized(model, dir)
	}
	t.tr.end(sp)
	if err != nil {
		return err
	}

	sp = t.tr.begin("shard.build", req, -1, 0)
	t.sh, err = shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: rqrmi.DefaultConfig()}, 4, 0)
	t.tr.end(sp)
	if err != nil {
		return err
	}
	t.sh.EnableCache(65536)
	t.handler = serve.NewSharded(t.sh, telemetry.NewRegistry()).Handler()
	t.engs = make([]*core.Engine, t.sh.Shards())
	for i := range t.engs {
		t.engs[i] = t.sh.Engine(i)
		t.maxErr = max(t.maxErr, float64(t.engs[i].Compiled().MaxErr()))
	}
	t.shardOf = make([]int, len(t.pool.keys))
	for i, k := range t.pool.keys {
		t.shardOf[i] = t.sh.ShardOf(k)
	}
	return nil
}

// passState is the scratch one read pass reuses across requests.
type passState struct {
	cache   *lcache.Cache
	epochs  []uint64
	frame   []byte
	rd      bytes.Reader
	rbuf    []byte
	batchKs []keys.Value
	batchRs []wire.Result
	single  []wire.Result
	groups  [][]keys.Value
	gidx    [][]int
	gout    []core.BatchResult
	preds   []rqrmi.Prediction
	bidx    []int
	ridx    []int
	probes  int
	hits    int
	probed  int
	stale   int
}

// newPassState allocates the scratch for one read pass. Each pass has its
// own result cache, so its hit rate is its own.
func (t *tracedRun) newPassState() *passState {
	ps := &passState{
		cache:  lcache.New(65536),
		epochs: make([]uint64, len(t.engs)),
		groups: make([][]keys.Value, len(t.engs)),
		gidx:   make([][]int, len(t.engs)),
		preds:  make([]rqrmi.Prediction, chunkKeys),
		bidx:   make([]int, chunkKeys),
		ridx:   make([]int, chunkKeys),
		single: make([]wire.Result, chunkKeys),
	}
	for i, e := range t.engs {
		ps.epochs[i] = e.CacheEpoch().Load()
	}
	return ps
}

// readPasses runs tracedChunks requests untraced over the first pool
// chunks and tracedChunks requests traced over the next ones, each
// untraced request directly before its traced twin so that both passes see
// the same machine state, and returns the two passes' wall times. The
// passes use disjoint chunks, so the traced one does not replay keys the
// untraced one left in the caches. Every answer of every layer is checked
// against the oracle.
func (t *tracedRun) readPasses() (untraced, traced time.Duration) {
	off := newTracer(false)
	psOff, psOn := t.newPassState(), t.newPassState()
	chunks := len(t.pool.keys) / chunkKeys
	for r := 0; r < tracedChunks; r++ {
		t0 := time.Now()
		t.readChunk(off, psOff, int32(r), (r%chunks)*chunkKeys)
		t1 := time.Now()
		t.readChunk(t.tr, psOn, int32(r), ((tracedChunks+r)%chunks)*chunkKeys)
		untraced += t1.Sub(t0)
		traced += time.Since(t1)
	}
	t.hitFrac = float64(psOn.hits) / float64(tracedChunks*chunkKeys)
	t.probesMean = float64(psOn.probes) / float64(tracedChunks*chunkKeys)
	return untraced, traced
}

// readChunk is one traced request: the chunk's keys through the wire codec,
// the result cache, the shard router (single-key and batch), the core
// engine (single-key and batch), RQRMI inference, the bounded search and
// the bucket search, each timed as one span.
func (t *tracedRun) readChunk(tr *tracer, ps *passState, req int32, lo int) {
	ks := t.pool.keys[lo : lo+chunkKeys]
	want := t.pool.want[lo : lo+chunkKeys]
	sof := t.shardOf[lo : lo+chunkKeys]
	root := tr.begin("request", req, -1, chunkKeys)

	sp := tr.begin("wire.codec_single", req, root, chunkKeys)
	for i, k := range ks {
		ps.frame = wire.AppendLookup(ps.frame[:0], uint64(i), k)
		ps.rd.Reset(ps.frame)
		f, buf, err := wire.ReadFrame(&ps.rd, ps.rbuf)
		ps.rbuf = buf
		if err == nil {
			k, err = f.Key()
		}
		if err == nil {
			ps.frame = wire.AppendResult(ps.frame[:0], f.ID, want[i].Action, want[i].Matched)
			ps.rd.Reset(ps.frame)
			f, ps.rbuf, err = wire.ReadFrame(&ps.rd, ps.rbuf)
		}
		if err == nil {
			ps.single[i], err = f.Result()
		}
		t.check(err == nil && k == ks[i] && ps.single[i] == want[i])
	}
	tr.end(sp)

	sp = tr.begin("wire.codec_batch", req, root, chunkKeys)
	ps.frame = wire.AppendBatch(ps.frame[:0], uint64(req), ks)
	ps.rd.Reset(ps.frame)
	f, buf, err := wire.ReadFrame(&ps.rd, ps.rbuf)
	ps.rbuf = buf
	if err == nil {
		ps.batchKs, err = f.BatchKeys(ps.batchKs[:0])
	}
	if err == nil {
		ps.frame = wire.AppendBatchResults(ps.frame[:0], f.ID, want)
		ps.rd.Reset(ps.frame)
		f, ps.rbuf, err = wire.ReadFrame(&ps.rd, ps.rbuf)
	}
	if err == nil {
		ps.batchRs, err = f.BatchResults(ps.batchRs[:0])
	}
	tr.end(sp)
	t.check(err == nil && len(ps.batchKs) == chunkKeys && len(ps.batchRs) == chunkKeys)

	sp = tr.begin("lcache.get", req, root, chunkKeys)
	for i, k := range ks {
		ps.probeCache(k, ps.epochs[sof[i]], want[i])
	}
	tr.end(sp)

	sp = tr.begin("shard.single", req, root, chunkKeys)
	for i, k := range ks {
		a, m, _ := t.sh.LookupStack(servedStack, k)
		ps.single[i] = wire.Result{Action: a, Matched: m}
	}
	tr.end(sp)
	t.checkAll(ps.single, want)

	sp = tr.begin("shard.batch", req, root, chunkKeys)
	res := t.sh.LookupBatchStack(servedStack, ks)
	tr.end(sp)
	for i, r := range res {
		t.check(wire.Result(r) == want[i])
	}

	sp = tr.begin("core.single", req, root, chunkKeys)
	for i, k := range ks {
		a, m := t.engs[sof[i]].Lookup(k)
		ps.single[i] = wire.Result{Action: a, Matched: m}
	}
	tr.end(sp)
	t.checkAll(ps.single, want)

	for s := range ps.groups {
		ps.groups[s], ps.gidx[s] = ps.groups[s][:0], ps.gidx[s][:0]
	}
	for i, k := range ks {
		ps.groups[sof[i]] = append(ps.groups[sof[i]], k)
		ps.gidx[sof[i]] = append(ps.gidx[sof[i]], i)
	}
	for s, g := range ps.groups {
		if len(g) == 0 {
			continue
		}
		sp = tr.begin("core.batch", req, root, len(g))
		ps.gout = t.engs[s].LookupBatch(g, ps.gout[:0])
		tr.end(sp)
		for j, r := range ps.gout {
			t.check(wire.Result(r) == want[ps.gidx[s][j]])
		}
	}

	sp = tr.begin("rqrmi.predict", req, root, chunkKeys)
	for i, k := range ks {
		ps.preds[i] = t.engs[sof[i]].Compiled().Predict(k)
	}
	tr.end(sp)

	probes := 0
	sp = tr.begin("rqrmi.search", req, root, chunkKeys)
	for i, k := range ks {
		var p int
		ps.bidx[i], p = t.engs[sof[i]].Compiled().Search(k, ps.preds[i])
		probes += p
	}
	tr.end(sp)
	ps.probes += probes

	sp = tr.begin("bucket.search", req, root, chunkKeys)
	for i, k := range ks {
		ps.ridx[i], _ = t.engs[sof[i]].Directory().Search(ps.bidx[i], k)
	}
	tr.end(sp)
	for i := range ks {
		a, m := t.engs[sof[i]].Ranges().Action(ps.ridx[i])
		t.check(wire.Result{Action: a, Matched: m} == want[i])
	}
	tr.end(root)
}

// probeCache is the result-cache plane as the server runs it per key: skip
// while the adaptive bypass is on, else probe and fill on a miss or a
// stale entry.
func (ps *passState) probeCache(k keys.Value, epoch uint64, want wire.Result) {
	if ps.cache.Bypassed(1) {
		return
	}
	ps.probed++
	_, _, o := ps.cache.Get(k, epoch)
	switch o {
	case lcache.Hit:
		ps.hits++
		return
	case lcache.Stale:
		ps.stale++
	}
	ps.cache.Put(k, epoch, want.Action, want.Matched)
}

// updatePass replays a churn stream in process: each update goes either
// straight to ShardedUpdatable (even updates) or through the HTTP /update
// handler (odd ones), then one chunk of reads runs through the result cache
// and the shard router with the oracle check; finally every shard the
// stream touched commits (retrain and swap).
func (t *tracedRun) updatePass() error {
	st, err := workload.GenerateUpdates(t.rs, workload.UpdateConfig{Count: tracedUpdates, Sites: updateSites, Seed: t.seed + 7})
	if err != nil {
		return err
	}
	sites := st.SiteSet()
	ps := &passState{cache: lcache.New(65536)}
	chunks := len(t.pool.keys) / chunkKeys
	touched := make(map[int]bool)
	inserts, refused := 0, 0
	for j, u := range st.Updates {
		req := int32(tracedChunks + j)
		root := t.tr.begin("update", req, -1, 1)
		var err error
		if j%2 == 0 {
			err = t.applyDirect(req, root, u)
		} else {
			err = t.applyHTTP(req, root, u)
		}
		t.tr.end(root)
		if u.Op == workload.UpdateInsert {
			inserts++
		}
		switch {
		case errors.Is(err, core.ErrDeltaFull):
			refused++
		case err != nil:
			return fmt.Errorf("update %d (%s %v/%d): %w", j, u.Op, u.Rule.Prefix, u.Rule.Len, err)
		}
		touched[t.sh.ShardOf(u.Rule.Prefix)] = true

		lo := ((2*tracedChunks + j) % chunks) * chunkKeys
		root = t.tr.begin("request", req, -1, chunkKeys)
		sp := t.tr.begin("lcache.get_churn", req, root, chunkKeys)
		for i, k := range t.pool.keys[lo : lo+chunkKeys] {
			ps.probeCache(k, t.sh.Engine(t.shardOf[lo+i]).CacheEpoch().Load(), t.pool.want[lo+i])
		}
		t.tr.end(sp)
		sp = t.tr.begin("shard.single_churn", req, root, chunkKeys)
		for i, k := range t.pool.keys[lo : lo+chunkKeys] {
			a, m, _ := t.sh.LookupStack(servedStack, k)
			if _, site := sites[k]; !site {
				t.check(wire.Result{Action: a, Matched: m} == t.pool.want[lo+i])
			}
		}
		t.tr.end(sp)
		t.tr.end(root)
	}
	if ps.probed > 0 {
		t.staleFrac = float64(ps.stale) / float64(ps.probed)
	}
	if inserts > 0 {
		t.deltaFullFrac = float64(refused) / float64(inserts)
	}

	req := int32(tracedChunks + len(st.Updates))
	for i := 0; i < t.sh.Shards(); i++ {
		if !touched[i] {
			continue
		}
		sp := t.tr.begin("shard.commit", req, -1, 0)
		err := t.sh.Commit(i)
		t.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// applyDirect applies one update through ShardedUpdatable.
func (t *tracedRun) applyDirect(req, root int32, u workload.Update) error {
	var err error
	switch u.Op {
	case workload.UpdateInsert:
		sp := t.tr.begin("core.insert", req, root, 1)
		err = t.sh.Insert(u.Rule)
		t.tr.end(sp)
	case workload.UpdateDelete:
		sp := t.tr.begin("core.delete", req, root, 1)
		err = t.sh.Delete(u.Rule.Prefix, u.Rule.Len)
		t.tr.end(sp)
	case workload.UpdateModify:
		sp := t.tr.begin("core.modify", req, root, 1)
		err = t.sh.ModifyAction(u.Rule.Prefix, u.Rule.Len, u.Rule.Action)
		t.tr.end(sp)
	}
	return err
}

// applyHTTP applies one update through the served /update handler, the
// same JSON request a client posts.
func (t *tracedRun) applyHTTP(req, root int32, u workload.Update) error {
	body, err := json.Marshal(map[string]any{
		"op": u.Op.String(), "prefix": fmt.Sprintf("0x%x", u.Rule.Prefix.Lo),
		"len": u.Rule.Len, "action": u.Rule.Action,
	})
	if err != nil {
		return err
	}
	r := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body))
	w := httptest.NewRecorder()
	sp := t.tr.begin("serve.http_update", req, root, 1)
	t.handler.ServeHTTP(w, r)
	t.tr.end(sp)
	switch w.Code {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return core.ErrDeltaFull
	}
	return fmt.Errorf("/update status %d: %s", w.Code, w.Body.String())
}

func (t *tracedRun) check(ok bool) {
	t.attempted++
	if !ok {
		t.mismatch++
	}
}

func (t *tracedRun) checkAll(got, want []wire.Result) {
	for i := range got {
		t.check(got[i] == want[i])
	}
}
