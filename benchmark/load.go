package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/wire"
)

// drainTimeout bounds how long a phase waits for in-flight answers after its
// send window closes; anything still unanswered then counts as failed.
const drainTimeout = 2 * time.Second

// keyPool is the workload's key sequence with the trie oracle's answer for
// every key, computed before any timing starts. Frames take consecutive
// slots of batch keys, so a single-key stream replays the trace in order and
// keeps its temporal locality; successive phases continue where the last
// one stopped instead of replaying the same prefix.
type keyPool struct {
	keys []keys.Value
	want []wire.Result
}

// loadConfig is one measured phase against the wire port.
type loadConfig struct {
	addr   string
	conns  int
	batch  int           // keys per frame: 1 sends OpLookup, more send OpBatch
	rate   float64       // offered frames/s over all connections; 0 = closed loop
	window int           // closed loop: frames kept in flight per connection
	dur    time.Duration // send window
	seed   int64         // Poisson schedule seed (open loop)
	offset int           // first frame slot of connection 0
}

// phaseStats is what one phase measured on the client side.
type phaseStats struct {
	tally
	keys      int           // keys answered as the oracle did (closed loop: within the send window)
	lat       []int64       // open loop, per answered frame: ns from its due time
	lag       []int64       // open loop, per sent frame: ns it went out after its due time
	clientCPU time.Duration // this process's utime+stime over the phase
}

// conn is one pipelined wire connection and its frame bookkeeping. Request
// ids are frame indices, so answers map back without a lookup table.
type conn struct {
	c     *wire.Client
	pool  *keyPool
	batch int
	base  int // first frame slot; connections start at different trace offsets
	slots int

	// enc/encFn encode the next frame without allocating a closure per
	// frame: the sender sets id and slot, then passes the cached method value.
	id    uint64
	slot  int
	encFn func([]byte) []byte

	res []wire.Result // scratch for batch answers
}

func newConn(addr string, pool *keyPool, batch, index, conns, offset int) (*conn, error) {
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial wire %s: %w", addr, err)
	}
	slots := len(pool.keys) / batch
	cn := &conn{c: c, pool: pool, batch: batch, slots: slots, base: offset + index*slots/conns}
	cn.encFn = cn.enc
	return cn, nil
}

func (cn *conn) slotOf(frame int) int { return (cn.base + frame) % cn.slots }

func (cn *conn) enc(b []byte) []byte {
	ks := cn.pool.keys[cn.slot*cn.batch : (cn.slot+1)*cn.batch]
	if cn.batch == 1 {
		return wire.AppendLookup(b, cn.id, ks[0])
	}
	return wire.AppendBatch(b, cn.id, ks)
}

func (cn *conn) send(frame int) error {
	cn.id, cn.slot = uint64(frame), cn.slotOf(frame)
	return cn.c.SendNoFlush(cn.encFn)
}

// check compares one answer frame with the oracle: ok=false means the
// server answered something other than the oracle (a mismatch); err means
// the frame was not an answer at all (an error frame or a malformed one).
func (cn *conn) check(f wire.Frame, frame int) (ok bool, err error) {
	slot := cn.slotOf(frame)
	want := cn.pool.want[slot*cn.batch : (slot+1)*cn.batch]
	switch f.Op {
	case wire.OpResult:
		if cn.batch != 1 {
			return false, fmt.Errorf("single answer to a batch frame")
		}
		r, err := f.Result()
		if err != nil {
			return false, err
		}
		return r == want[0], nil
	case wire.OpBatchResult:
		cn.res, err = f.BatchResults(cn.res[:0])
		if err != nil {
			return false, err
		}
		if len(cn.res) != len(want) {
			return false, nil
		}
		for i, r := range cn.res {
			if r != want[i] {
				return false, nil
			}
		}
		return true, nil
	case wire.OpError:
		return false, f.Err()
	}
	return false, fmt.Errorf("unexpected %s frame", f.Op)
}

// runPhase dials the connections, runs one open- or closed-loop phase and
// closes them again.
func runPhase(cfg loadConfig, pool *keyPool) (phaseStats, error) {
	conns := make([]*conn, cfg.conns)
	for i := range conns {
		cn, err := newConn(cfg.addr, pool, cfg.batch, i, cfg.conns, cfg.offset)
		if err != nil {
			for _, c := range conns[:i] {
				c.c.Close()
			}
			return phaseStats{}, err
		}
		conns[i] = cn
	}
	defer func() {
		for _, cn := range conns {
			cn.c.Close()
		}
	}()
	cpu0 := selfCPU()
	var st phaseStats
	if cfg.rate > 0 {
		st = runOpen(cfg, conns)
	} else {
		st = runClosed(cfg, conns)
	}
	st.clientCPU = selfCPU() - cpu0
	return st, nil
}

// runOpen drives an open loop: each connection has its own Poisson schedule
// (cfg.rate split evenly), one pacing goroutine sends every due frame with
// SendNoFlush and then one Flush per connection, and one receiver per
// connection times each answer from the frame's due time, so a stall is
// charged to every request it delayed (no coordinated omission).
func runOpen(cfg loadConfig, conns []*conn) phaseStats {
	rng := rand.New(rand.NewSource(cfg.seed))
	due := make([][]time.Duration, len(conns))
	lat := make([][]int64, len(conns))
	lag := make([][]int64, len(conns))
	for i := range conns {
		due[i] = poissonSchedule(cfg.rate/float64(len(conns)), cfg.dur, rng)
		lat[i] = make([]int64, len(due[i]))
		for j := range lat[i] {
			lat[i][j] = -1
		}
		lag[i] = make([]int64, 0, len(due[i]))
	}
	tallies := make([]tally, len(conns))
	start := time.Now()

	var wg sync.WaitGroup
	for i, cn := range conns {
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			tallies[i] = cn.receive(start, due[i], lat[i])
		}(i, cn)
	}
	sendErrs := pace(start, conns, due, lag)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(start.Add(cfg.dur + drainTimeout))):
		for _, cn := range conns {
			cn.c.Close() // unblocks the receivers; the rest count as unanswered
		}
		<-done
	}

	var st phaseStats
	for i := range conns {
		t := tallies[i]
		t.attempted = len(due[i])
		t.errors += sendErrs[i]
		answered := 0
		for _, l := range lat[i] {
			if l < 0 {
				continue
			}
			answered++
			st.lat = append(st.lat, l)
		}
		t.unanswered = t.attempted - answered - sendErrs[i]
		st.keys += (answered - t.mismatches) * cfg.batch
		st.tally.add(t)
		st.lag = append(st.lag, lag[i]...)
	}
	return st
}

// receive reads answers until every scheduled frame is answered or the
// connection closes, recording each latency from its due time. It counts
// error answers and oracle mismatches; a mismatched frame still records
// its latency (it was answered), but fails.
func (cn *conn) receive(start time.Time, due []time.Duration, lat []int64) tally {
	var t tally
	answered := 0
	for answered < len(due) {
		f, err := cn.c.Recv()
		if err != nil {
			return t // closed by the drain timeout or by the server
		}
		now := time.Since(start)
		j := int(f.ID)
		if j < 0 || j >= len(due) || lat[j] >= 0 {
			t.errors++ // an id this phase never sent, or a second answer
			continue
		}
		lat[j] = int64(now - due[j])
		answered++
		switch ok, err := cn.check(f, j); {
		case err != nil:
			t.errors++
		case !ok:
			t.mismatches++
		}
	}
	return t
}

// pace sends each connection's frames at their due times. It sleeps with
// nanosleep on a locked thread with 1 ns timer slack: a runtime timer
// rounds sub-millisecond waits up to the netpoller's 1 ms granularity,
// which would make the generator, not the server, set the latency. Frames
// found due on waking go out in one burst per connection. It returns the
// frames per connection that could not be sent.
func pace(start time.Time, conns []*conn, due [][]time.Duration, lag [][]int64) []int {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	next := make([]int, len(conns))
	errs := make([]int, len(conns))
	broken := make([]bool, len(conns))
	for {
		earliest := time.Duration(-1)
		for i := range conns {
			if !broken[i] && next[i] < len(due[i]) && (earliest < 0 || due[i][next[i]] < earliest) {
				earliest = due[i][next[i]]
			}
		}
		if earliest < 0 {
			return errs
		}
		now := time.Since(start)
		if earliest > now {
			nanosleep(earliest - now)
			now = time.Since(start)
		}
		for i, cn := range conns {
			sent := 0
			for !broken[i] && next[i] < len(due[i]) && due[i][next[i]] <= now {
				if err := cn.send(next[i]); err != nil {
					broken[i] = true
					break
				}
				lag[i] = append(lag[i], int64(now-due[i][next[i]]))
				next[i]++
				sent++
			}
			if sent > 0 && !broken[i] && cn.c.Flush() != nil {
				broken[i] = true
			}
			if broken[i] {
				errs[i] += len(due[i]) - next[i]
				next[i] = len(due[i])
			}
		}
	}
}

// runClosed keeps cfg.window frames in flight per connection for the send
// window: every answer releases one more frame, and released frames are
// flushed in groups of a quarter window (so between ¾ and all of the window
// is on the wire). Throughput counts correct keys answered within the send
// window.
func runClosed(cfg loadConfig, conns []*conn) phaseStats {
	start := time.Now()
	deadline := start.Add(cfg.dur)
	stops := make([]*time.Timer, len(conns))
	for i, cn := range conns {
		stops[i] = time.AfterFunc(cfg.dur+drainTimeout, func() { cn.c.Close() })
	}
	defer func() {
		for _, t := range stops {
			t.Stop()
		}
	}()
	refill := cfg.window / 4
	if refill < 1 {
		refill = 1
	}
	type out struct {
		t    tally
		keys int
	}
	outs := make([]out, len(conns))
	var wg sync.WaitGroup
	for i, cn := range conns {
		wg.Add(1)
		go func(o *out, cn *conn) {
			defer wg.Done()
			sent, inflight, unflushed := 0, 0, 0
			defer func() {
				o.t.attempted = sent
				o.t.unanswered += inflight // left on the wire by a transport error
			}()
			for ; sent < cfg.window; sent++ {
				if cn.send(sent) != nil {
					o.t.errors++
					return
				}
				inflight++
			}
			if cn.c.Flush() != nil {
				return
			}
			for inflight > 0 {
				f, err := cn.c.Recv()
				if err != nil {
					return
				}
				now := time.Now()
				inflight--
				switch ok, err := cn.check(f, int(f.ID)); {
				case err != nil:
					o.t.errors++
				case !ok:
					o.t.mismatches++
				default:
					if now.Before(deadline) {
						o.keys += cfg.batch
					}
				}
				if now.Before(deadline) {
					if cn.send(sent) != nil {
						sent++
						o.t.errors++
						return
					}
					sent++
					inflight++
					unflushed++
				}
				if unflushed >= refill || (unflushed > 0 && !now.Before(deadline)) {
					if cn.c.Flush() != nil {
						return
					}
					unflushed = 0
				}
			}
		}(&outs[i], cn)
	}
	wg.Wait()
	var st phaseStats
	for _, o := range outs {
		st.tally.add(o.t)
		st.keys += o.keys
	}
	return st
}

// nanosleep blocks the calling thread for d.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early wake only shortens one sleep
}

// setTimerSlack lowers the calling thread's timer slack from the default
// 50 µs to 1 ns so nanosleep wakes on time.
func setTimerSlack() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: default slack only adds lag, which is reported
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
