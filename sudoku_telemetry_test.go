// Public telemetry API tests: Metrics fold consistency, the registry
// skeleton golden (metric names and labels pinned so renames break CI
// instead of dashboards), live RAS taps with exact drop accounting, the
// /healthz stall signal, and the -race hammer over concurrent record +
// snapshot + subscribe during chaos-style churn.
package sudoku

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sudoku/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// telemetryConfig is smallConfig pinned to a fixed shard count and seed
// so the registry skeleton is deterministic.
func telemetryConfig() Config {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 4
	cfg.Seed = 42
	cfg.RetireCEThreshold = 4
	cfg.QuarantineAuditPasses = 2
	return cfg
}

func TestMetricsMatchesStats(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 200; i++ {
		addr := uint64(i%32) * 64
		if i%3 == 0 {
			if err := c.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		} else if err := c.ReadInto(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Scrub(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Stats != c.Stats() {
		t.Fatal("Metrics.Stats diverged from Stats()")
	}
	// Every access lands in exactly one of the four access histograms.
	reads := m.ReadHit.Count + m.ReadMiss.Count
	writes := m.WriteHit.Count + m.WriteMiss.Count
	if reads != m.Reads || writes != m.Writes {
		t.Fatalf("histogram counts: reads %d/%d writes %d/%d",
			reads, m.Reads, writes, m.Writes)
	}
	if m.ReadHit.Count != m.Hits+m.Misses-m.WriteHit.Count-m.WriteMiss.Count-m.ReadMiss.Count {
		t.Fatalf("hit/miss partition broken: %+v", m.Stats)
	}
	if m.ScrubPass.Count != m.ScrubPasses {
		t.Fatalf("scrub histogram count %d, passes %d", m.ScrubPass.Count, m.ScrubPasses)
	}
	if m.ReadHit.Count > 0 && m.ReadHit.Quantile(0.5) <= 0 {
		t.Fatal("read-hit p50 not positive")
	}
}

func TestConcurrentMetricsFold(t *testing.T) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 400; i++ {
		addr := uint64(i%128) * 64
		if i%4 == 0 {
			if err := c.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		} else if err := c.ReadInto(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	var folded Metrics
	for i := 0; i < c.Shards(); i++ {
		m, err := c.ShardMetrics(i)
		if err != nil {
			t.Fatal(err)
		}
		folded.Add(m)
	}
	if got := c.Metrics(); got != folded {
		t.Fatal("Metrics() != sum of ShardMetrics(i)")
	}
	if _, err := c.ShardMetrics(c.Shards()); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestRegistrySkeletonGolden pins the full set of metric names, label
// sets, and HELP/TYPE lines the Concurrent registry exposes. Values are
// stripped (they vary run to run); the skeleton is what dashboards bind
// to. Regenerate with `go test . -run Skeleton -update`.
func TestRegistrySkeletonGolden(t *testing.T) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.NewRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	skeleton := expositionSkeleton(buf.String())
	golden := filepath.Join("testdata", "registry_skeleton.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(skeleton), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if skeleton != string(want) {
		t.Fatalf("registry skeleton drifted (run with -update if intended)\n got:\n%s", skeleton)
	}
}

// expositionSkeleton strips sample values, keeping comments and the
// name{labels} part of each sample line.
func expositionSkeleton(exposition string) string {
	var b strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			b.WriteString(line)
			b.WriteByte('\n')
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i]
		}
		// build_info label values carry the toolchain version and VCS
		// revision — environment-dependent, so the skeleton keeps only
		// the family name.
		if strings.HasPrefix(line, "sudoku_build_info{") {
			line = "sudoku_build_info"
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRegistryExpositionParses(t *testing.T) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 100; i++ {
		if err := c.Write(uint64(i)*64, buf); err != nil {
			t.Fatal(err)
		}
	}
	reg := c.NewRegistry()
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseExposition(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sudoku_writes_total",
		"sudoku_raid_reconstructions_total",
		"sudoku_sdr_resurrections_total",
		"sudoku_hash2_retries_total",
		"sudoku_crc_detections_total",
		"sudoku_write_hit_latency_ns_count",
		`sudoku_ras_events_total{kind="sdc"}`,
		`sudoku_shard_writes_total{shard="3"}`,
		"sudoku_scrub_rotations_total",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("exposition missing %s", want)
		}
	}
	if samples["sudoku_writes_total"] != 100 {
		t.Fatalf("sudoku_writes_total = %v", samples["sudoku_writes_total"])
	}
	// The expvar renderer must emit one valid JSON object of the same
	// registry.
	var m map[string]any
	if err := json.Unmarshal([]byte(reg.String()), &m); err != nil {
		t.Fatal(err)
	}
	if m["sudoku_writes_total"] != float64(100) {
		t.Fatalf("expvar sudoku_writes_total = %v", m["sudoku_writes_total"])
	}
}

// TestSubscribeDropAccuracy pins exact drop accounting under a
// deliberately slow (never-receiving) subscriber: with a buffer of B
// and N events appended, exactly N-B land in the buffer... rather,
// B are buffered and N-B are dropped, counted on the tap and the log.
func TestSubscribeDropAccuracy(t *testing.T) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	const buffer, events = 4, 50
	sub := c.SubscribeEvents(buffer)
	for i := 0; i < events; i++ {
		c.RecordSDC(uint64(i)*64, "synthetic")
	}
	if got := sub.Dropped(); got != events-buffer {
		t.Fatalf("tap dropped %d, want %d", got, events-buffer)
	}
	if got := c.Health().EventsDropped; got != events-buffer {
		t.Fatalf("health dropped %d, want %d", got, events-buffer)
	}
	// The buffered prefix is intact and ordered.
	for i := 0; i < buffer; i++ {
		ev := <-sub.Events()
		if ev.Kind.String() != "sdc" || ev.Addr != uint64(i)*64 {
			t.Fatalf("event %d = %v", i, ev)
		}
	}
	sub.Close()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel open after Close")
	}
	sub.Close() // idempotent
	// A post-close append must not panic or deliver.
	c.RecordSDC(0, "after close")
	if got := c.Health().Counts.SDC; got != events+1 {
		t.Fatalf("SDC census %d, want %d", got, events+1)
	}
}

// TestHealthScrubStall proves a stalled pass flips Health.ScrubStalled
// and that recovery clears it and advances LastScrubPass — the
// /healthz watchdog contract. OnPass runs while the pass heartbeat is
// still set, so blocking it simulates a wedged repair.
func TestHealthScrubStall(t *testing.T) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	block := func(ScrubPass) {
		once.Do(func() { <-release })
	}
	err = c.StartScrub(ScrubDaemonConfig{
		Interval: 2 * time.Millisecond,
		Watchdog: 10 * time.Millisecond,
		OnPass:   block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.StopScrub(); err != nil {
			t.Error(err)
		}
	}()
	if h := c.Health(); h.ScrubWatchdog != 10*time.Millisecond {
		t.Fatalf("ScrubWatchdog = %v", h.ScrubWatchdog)
	}
	// Wait for both the live stall flag and the watchdog's RAS event so
	// releasing early can't race the watchdog tick out of existence.
	waitFor(t, 5*time.Second, func() bool {
		h := c.Health()
		return h.ScrubStalled && h.Counts.ScrubStalls > 0
	})
	if h := c.Health(); !h.LastScrubPass.IsZero() || h.ScrubPassAge != 0 {
		t.Fatalf("pass completed while stalled: %+v", h)
	}
	close(release)
	waitFor(t, 5*time.Second, func() bool {
		h := c.Health()
		return !h.ScrubStalled && !h.LastScrubPass.IsZero() && h.ScrubPassAge > 0
	})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

// TestTelemetryChurnRace is the -race hammer: concurrent traffic, fault
// storms, scrub daemon, registry scrapes, Metrics snapshots, and
// subscribe/close churn all at once. The assertions are deliberately
// weak — the race detector is the judge.
func TestTelemetryChurnRace(t *testing.T) {
	cfg := telemetryConfig()
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartScrub(ScrubDaemonConfig{
		Interval:     2 * time.Millisecond,
		StormPerPass: 20,
		Watchdog:     50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.StopScrub(); err != nil {
			t.Error(err)
		}
	}()
	reg := c.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // traffic
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := uint64((g*1000+i)%512) * 64
				if i%3 == 0 {
					_ = c.Write(addr, buf)
				} else {
					_ = c.ReadInto(addr, buf)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // scrapes + snapshots
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var out bytes.Buffer
			if err := reg.WritePrometheus(&out); err != nil {
				t.Error(err)
				return
			}
			if _, err := telemetry.ParseExposition(&out); err != nil {
				t.Error(err)
				return
			}
			_ = c.Metrics()
			_ = c.Health()
		}
	}()
	wg.Add(1)
	go func() { // subscribe/drain/close churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sub := c.SubscribeEvents(8)
			deadline := time.After(2 * time.Millisecond)
		drain:
			for {
				select {
				case _, ok := <-sub.Events():
					if !ok {
						break drain
					}
				case <-deadline:
					break drain
				}
			}
			sub.Close()
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	m := c.Metrics()
	if m.Reads == 0 || m.Writes == 0 {
		t.Fatalf("no traffic recorded: %+v", m.Stats)
	}
}

// TestHealthJSONRoundTrip pins that Health marshals cleanly — the
// /healthz payload contract.
func TestHealthJSONRoundTrip(t *testing.T) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.RecordSDC(64, "probe")
	raw, err := json.Marshal(c.Health())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Counts", "Uptime", "ScrubStalled", "EventsDropped"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("health JSON missing %s: %s", key, raw)
		}
	}
}

// BenchmarkRegistryScrape sizes the scrape cost (allocations are fine
// here — scrapes are off the hot path; the number just shouldn't be
// absurd).
func BenchmarkRegistryScrape(b *testing.B) {
	c, err := NewConcurrent(telemetryConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg := c.NewRegistry()
	var out bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := reg.WritePrometheus(&out); err != nil {
			b.Fatal(err)
		}
	}
	if out.Len() == 0 {
		b.Fatal("empty exposition")
	}
	_ = fmt.Sprintf("%d", out.Len())
}
