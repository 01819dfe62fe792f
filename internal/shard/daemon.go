// The scrub daemon: the background goroutine that turns the paper's
// stop-the-world 20 ms scrub (§II-D) into an incremental, per-shard
// walk. Each rotation visits every shard once, pacing the passes so a
// full rotation spans one scrub interval; each pass holds exactly one
// shard, so foreground traffic is never globally stalled. The adaptive
// interval ladder (scrubber.Policy, §VIII-E) runs on whole rotations,
// and backpressure — repair work outrunning a shard's slice of the
// interval — is absorbed by skipping the pacing sleep and counted.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/cache"
	"sudoku/internal/ras"
	"sudoku/internal/scrubber"
)

// ErrAlreadyRunning is returned by Start on a running daemon.
var ErrAlreadyRunning = errors.New("shard: scrub daemon already running")

// ErrNotRunning is returned by Stop and Drain on a stopped daemon.
var ErrNotRunning = errors.New("shard: scrub daemon not running")

// ErrStopped is returned by Drain when the daemon stops before the
// drain target rotation completes.
var ErrStopped = errors.New("shard: scrub daemon stopped during drain")

// DaemonConfig parameterizes the incremental scrub loop.
type DaemonConfig struct {
	// Interval is the target full-rotation period — the time budget
	// for scrubbing every shard once (the paper's 20 ms, usually
	// stretched in wall-clock terms).
	Interval time.Duration
	// Policy, when non-nil, adapts the rotation interval after every
	// completed rotation, fed the rotation's merged report (§VIII-E).
	Policy scrubber.Policy
	// StormPerPass, when positive, injects that many uniform bit flips
	// into a shard (from the shard's private RNG stream) immediately
	// before its pass — an interval's worth of thermal noise for demos
	// and soak tests, scaled to one shard.
	StormPerPass int
	// OnPass, when non-nil, receives every per-shard pass. It runs on
	// the daemon goroutine; keep it fast.
	OnPass func(Pass)
	// Watchdog, when positive, bounds how long one per-shard pass
	// (storm + scrub + OnPass) may run before the daemon flags it as
	// stalled: a KindScrubStall event lands in the engine's RAS log and
	// Stats().Stalls increments, once per stalled pass. Zero disables
	// the watchdog. The pass is not killed — a stall is an observability
	// signal, not an abort.
	Watchdog time.Duration
	// StartShard, when positive, makes the FIRST rotation begin at that
	// shard instead of 0 (subsequent rotations are always full walks
	// from 0). A warm restart sets it from the persisted scrub cursor so
	// the shards the dead process had already scrubbed this rotation are
	// not the ones that wait longest for their next pass.
	StartShard int
}

// Pass describes one completed per-shard scrub pass.
type Pass struct {
	// Rotation is the 1-based full-rotation number the pass belongs to.
	Rotation int
	// Shard is the shard index scrubbed.
	Shard int
	// Report is the shard's repair summary (DUE lines in whole-cache
	// slot numbering).
	Report cache.ScrubReport
	// Took is the wall-clock duration of the pass (storm + scrub).
	Took time.Duration
	// Err carries a pass-level failure; the loop keeps running.
	Err error
}

// DaemonStats aggregates daemon activity.
type DaemonStats struct {
	// Rotations counts completed full rotations over all shards.
	Rotations int
	// ShardPasses counts completed per-shard passes.
	ShardPasses int
	// Backpressure counts passes whose repair work outran the shard's
	// slice of the interval, forcing the next pass to start
	// immediately instead of pacing.
	Backpressure int
	// Interval is the current rotation interval (after Policy).
	Interval time.Duration
	// Stalls counts passes the watchdog flagged as exceeding their
	// stall budget.
	Stalls int
	// Panics counts panics recovered inside the rotation loop; each one
	// abandons the rotation in flight and restarts with the next.
	Panics int
	// Scrub aggregates the repair work, per-shard passes counted as
	// scrubber passes.
	Scrub scrubber.Stats
}

// Add folds another snapshot into s: the cumulative counters sum, and
// o's Interval (the more recent daemon's) wins when set. Callers use
// it to keep lifetime totals across daemon stop/start cycles.
func (s *DaemonStats) Add(o DaemonStats) {
	s.Rotations += o.Rotations
	s.ShardPasses += o.ShardPasses
	s.Backpressure += o.Backpressure
	s.Stalls += o.Stalls
	s.Panics += o.Panics
	if o.Interval > 0 {
		s.Interval = o.Interval
	}
	s.Scrub.Add(o.Scrub)
}

// ScrubDaemon drives the incremental scrub loop over an Engine. All
// methods are safe for concurrent use.
type ScrubDaemon struct {
	eng *Engine
	cfg DaemonConfig

	mu        sync.Mutex
	cond      *sync.Cond
	running   bool
	stopping  bool // a Stop has claimed the shutdown
	active    bool // a rotation is in flight
	completed int  // completed rotations
	stopCh    chan struct{}
	doneCh    chan struct{}
	stats     DaemonStats

	// beat is the UnixNano start time of the pass in flight (0 between
	// passes); beatShard is that pass's shard. The watchdog goroutine
	// reads both lock-free.
	beat      atomic.Int64
	beatShard atomic.Int64
	// lastPass is the UnixNano completion time of the most recent
	// per-shard pass (0 until the first one finishes). Health endpoints
	// read it lock-free to expose scrub-pass age.
	lastPass atomic.Int64
	// cursor is the next shard the rotation walk will scrub — the value
	// a checkpoint persists so a warm restart resumes the walk where the
	// dead process left off.
	cursor atomic.Int64
}

// NewScrubDaemon builds a daemon over the engine.
func NewScrubDaemon(eng *Engine, cfg DaemonConfig) (*ScrubDaemon, error) {
	if eng == nil {
		return nil, errors.New("shard: nil engine")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("shard: daemon interval %v", cfg.Interval)
	}
	if cfg.StormPerPass < 0 {
		return nil, fmt.Errorf("shard: StormPerPass %d", cfg.StormPerPass)
	}
	if cfg.Watchdog < 0 {
		return nil, fmt.Errorf("shard: Watchdog %v", cfg.Watchdog)
	}
	if cfg.StartShard < 0 || cfg.StartShard >= eng.Shards() {
		if cfg.StartShard != 0 {
			return nil, fmt.Errorf("shard: StartShard %d outside [0,%d)", cfg.StartShard, eng.Shards())
		}
	}
	d := &ScrubDaemon{eng: eng, cfg: cfg}
	d.cond = sync.NewCond(&d.mu)
	d.stats.Interval = cfg.Interval
	d.cursor.Store(int64(cfg.StartShard))
	return d, nil
}

// Start launches the background loop.
func (d *ScrubDaemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		return ErrAlreadyRunning
	}
	d.stopCh = make(chan struct{})
	d.doneCh = make(chan struct{})
	d.running = true
	go d.loop(d.stopCh, d.doneCh)
	if d.cfg.Watchdog > 0 {
		go d.watchdog(d.stopCh)
	}
	return nil
}

// Stop signals the loop to finish its current per-shard pass and waits
// for it to exit. A partially completed rotation is abandoned.
func (d *ScrubDaemon) Stop() error {
	d.mu.Lock()
	if !d.running || d.stopping {
		d.mu.Unlock()
		return ErrNotRunning
	}
	d.stopping = true // claim the shutdown: concurrent Stops bail out
	stop, done := d.stopCh, d.doneCh
	d.mu.Unlock()

	close(stop)
	<-done

	d.mu.Lock()
	d.running = false
	d.stopping = false
	d.active = false
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// Drain blocks until a full rotation that started at or after the call
// has completed — every shard has been scrubbed once with all faults
// present at the call visible to its pass. It returns ErrStopped if
// the daemon stops first.
func (d *ScrubDaemon) Drain() error {
	return d.DrainContext(context.Background())
}

// DrainContext is Drain with a deadline: it additionally returns the
// context's error if ctx is cancelled or times out before the target
// rotation completes. The daemon itself keeps running either way.
func (d *ScrubDaemon) DrainContext(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.running {
		return ErrNotRunning
	}
	target := d.completed + 1
	if d.active {
		// Mid-rotation: shards already visited this rotation were
		// scrubbed before the call; only the next rotation is fully
		// after it.
		target++
	}
	// Wake the cond waiter when the context fires; AfterFunc's stop
	// also detaches the callback if we return first.
	stopWatch := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stopWatch()
	for d.running && d.completed < target && ctx.Err() == nil {
		d.cond.Wait()
	}
	if err := ctx.Err(); err != nil && d.completed < target {
		return err
	}
	if d.completed < target {
		return ErrStopped
	}
	return nil
}

// Running reports whether the loop is active.
func (d *ScrubDaemon) Running() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.running
}

// Stats returns a snapshot of the aggregate counters.
func (d *ScrubDaemon) Stats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// LastPass returns the completion time of the most recent per-shard
// pass (zero time before the first one finishes). Lock-free.
func (d *ScrubDaemon) LastPass() time.Time {
	ns := d.lastPass.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Watchdog returns the configured per-pass stall budget (0 = disabled).
func (d *ScrubDaemon) Watchdog() time.Duration { return d.cfg.Watchdog }

// Cursor returns the next shard the rotation walk will scrub — the
// warm-restart resume point a checkpoint persists. Lock-free.
func (d *ScrubDaemon) Cursor() int { return int(d.cursor.Load()) }

// Stalled reports whether the pass currently in flight has exceeded the
// watchdog budget — the live form of the KindScrubStall event, for
// health endpoints. Always false with the watchdog disabled. Lock-free.
func (d *ScrubDaemon) Stalled() bool {
	if d.cfg.Watchdog <= 0 {
		return false
	}
	beat := d.beat.Load()
	return beat != 0 && time.Now().UnixNano()-beat >= int64(d.cfg.Watchdog)
}

// loop is the daemon goroutine body. Each rotation runs under a panic
// guard: a panicking Policy, OnPass, or repair path abandons that
// rotation (recorded as a KindDaemonPanic event) and the loop restarts
// with the next one — the scrubber never silently dies.
func (d *ScrubDaemon) loop(stop, done chan struct{}) {
	defer close(done)
	interval := d.cfg.Interval
	for rotation := 1; ; rotation++ {
		if stopped := d.rotation(rotation, &interval, stop); stopped {
			return
		}
	}
}

// rotation runs one full rotation and reports whether the loop should
// exit. It recovers panics, converting them into RAS events.
func (d *ScrubDaemon) rotation(rotation int, interval *time.Duration, stop chan struct{}) (stopped bool) {
	defer func() {
		d.beat.Store(0)
		if r := recover(); r != nil {
			d.mu.Lock()
			d.stats.Panics++
			d.active = false
			d.cond.Broadcast()
			d.mu.Unlock()
			d.eng.RecordEvent(ras.Event{
				Kind: ras.KindDaemonPanic, Line: ras.NoLine, Addr: ras.NoAddr,
				Detail: fmt.Sprintf("rotation %d abandoned: %v", rotation, r),
			})
		}
	}()
	shards := d.eng.Shards()
	d.mu.Lock()
	d.active = true
	d.mu.Unlock()
	rotStart := time.Now()
	var agg cache.ScrubReport
	var firstErr error
	slot := *interval / time.Duration(shards)
	start := 0
	if rotation == 1 && d.cfg.StartShard > 0 && d.cfg.StartShard < shards {
		// Warm restart: the first rotation resumes where the persisted
		// cursor left off; every later rotation is a full walk.
		start = d.cfg.StartShard
	}
	for i := start; i < shards; i++ {
		select {
		case <-stop:
			return true
		default:
		}
		d.beatShard.Store(int64(i))
		d.beat.Store(time.Now().UnixNano())
		pass := d.pass(rotation, i)
		MergeReport(&agg, pass.Report)
		if pass.Err != nil && firstErr == nil {
			firstErr = pass.Err
		}
		if d.cfg.OnPass != nil {
			d.cfg.OnPass(pass)
		}
		d.beat.Store(0) // pacing idle is not a stall
		d.lastPass.Store(time.Now().UnixNano())
		d.cursor.Store(int64((i + 1) % shards))
		// Pace: every shard gets an equal slice of the rotation
		// interval. A pass that outran its slice has a repair
		// backlog — start the next one immediately (backpressure)
		// rather than letting faults accumulate further.
		if pass.Took < slot {
			timer := time.NewTimer(slot - pass.Took)
			select {
			case <-stop:
				timer.Stop()
				return true
			case <-timer.C:
			}
		} else {
			d.mu.Lock()
			d.stats.Backpressure++
			d.mu.Unlock()
		}
	}
	if d.cfg.Policy != nil {
		next := d.cfg.Policy.NextInterval(scrubber.Pass{
			Seq:    rotation,
			Report: agg,
			Took:   time.Since(rotStart),
			Err:    firstErr,
		}, *interval)
		if next > 0 {
			*interval = next
		}
	}
	d.mu.Lock()
	d.active = false
	d.completed = rotation
	d.stats.Rotations++
	d.stats.Interval = *interval
	d.cond.Broadcast()
	d.mu.Unlock()
	return false
}

// watchdog flags passes that exceed the stall budget. It reads the
// pass heartbeat lock-free and reports each stalled pass exactly once.
func (d *ScrubDaemon) watchdog(stop chan struct{}) {
	period := d.cfg.Watchdog / 4
	if period <= 0 {
		period = d.cfg.Watchdog
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	var flagged int64 // beat value already reported as stalled
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		beat := d.beat.Load()
		if beat == 0 {
			flagged = 0
			continue // between passes
		}
		if time.Now().UnixNano()-beat < int64(d.cfg.Watchdog) || beat == flagged {
			continue
		}
		flagged = beat
		shard := int(d.beatShard.Load())
		d.mu.Lock()
		d.stats.Stalls++
		d.mu.Unlock()
		d.eng.RecordEvent(ras.Event{
			Kind: ras.KindScrubStall, Shard: shard, Line: ras.NoLine, Addr: ras.NoAddr,
			Detail: fmt.Sprintf("pass on shard %d exceeded %v", shard, d.cfg.Watchdog),
		})
	}
}

// pass runs one per-shard storm+scrub pass and accounts it.
func (d *ScrubDaemon) pass(rotation, shard int) Pass {
	start := time.Now()
	p := Pass{Rotation: rotation, Shard: shard}
	if d.cfg.StormPerPass > 0 {
		if err := d.eng.StormShard(shard, d.cfg.StormPerPass); err != nil {
			p.Err = fmt.Errorf("storm: %w", err)
		}
	}
	if p.Err == nil {
		rep, err := d.eng.ScrubShard(shard)
		p.Report = rep
		if err != nil {
			p.Err = fmt.Errorf("scrub: %w", err)
		}
	}
	p.Took = time.Since(start)

	d.mu.Lock()
	d.stats.ShardPasses++
	d.stats.Scrub.Observe(scrubber.Pass{
		Seq:    d.stats.ShardPasses,
		Report: p.Report,
		Took:   p.Took,
		Err:    p.Err,
	})
	d.mu.Unlock()
	return p
}
