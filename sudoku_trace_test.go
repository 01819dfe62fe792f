// Request-tracing tests at the public API: the deterministic
// deep-repair ladder trace (the ISSUE's acceptance gate), tail-sampler
// integration with Health and the metrics exemplars, and the traced
// batch variants.
package sudoku

import (
	"bytes"
	"strings"
	"testing"

	"sudoku/internal/reqtrace"
)

// traceConfig pins one shard so the faulted set is the set the read
// hits, making the repair ladder walk deterministic.
func traceConfig() Config {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 1
	cfg.Seed = 7
	return cfg
}

// TestTraceDeepRepairLadder drives a multi-bit fault through ApplyFaults
// and asserts the traced read lands in the flight recorder with a rung
// sequence matching the repair ladder: crc_detect first, then a
// deeper-than-ECC-1 rung, in monotone ladder order.
func TestTraceDeepRepairLadder(t *testing.T) {
	cfg := traceConfig()
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 64)
	for i := range line {
		line[i] = 0xA5
	}
	if err := c.Write(0, line); err != nil {
		t.Fatal(err)
	}
	// Plan 3 bit flips (past ECC-1's single-bit reach) into physical
	// line 0 — the way the first fill of set 0 deterministically picks,
	// so the flips land on the resident line holding addr 0. Faults are
	// planned by physical position, the campaign ApplyFaults contract.
	g := c.Geometry()
	flips := []int{0*g.LineBits + 1, 0*g.LineBits + 7, 0*g.LineBits + 13}
	landed, err := c.ApplyFaults(FaultIntervalPlan{Flips: flips})
	if err != nil {
		t.Fatal(err)
	}
	if landed != 3 {
		t.Fatalf("flips landed = %d, want 3 (victim slot drifted?)", landed)
	}

	dst := make([]byte, 64)
	const id = 0xdeadbeef
	published, err := c.TraceRead(id, 0, dst)
	if err != nil {
		t.Fatalf("traced read failed past the full ladder: %v", err)
	}
	if !bytes.Equal(dst, line) {
		t.Fatal("repaired read returned wrong data")
	}
	if !published {
		t.Fatal("deep-repair trace not published by the tail sampler")
	}

	var got *Trace
	for _, tr := range c.Tracer().Ring().Snapshot(nil) {
		if tr.ID == id {
			trCopy := tr
			got = &trCopy
			break
		}
	}
	if got == nil {
		t.Fatal("trace not in the flight recorder")
	}
	spans := got.Spans[:got.N]
	if !reqtrace.RungOrderOK(spans) {
		t.Fatalf("rung order violated: %+v", spans)
	}
	var sawDetect, sawDeep, sawPlan bool
	for _, s := range spans {
		switch s.Kind {
		case reqtrace.KindCRCDetect:
			sawDetect = true
		case reqtrace.KindRAIDReconstruct, reqtrace.KindSDR,
			reqtrace.KindHash2Retry, reqtrace.KindDUERefetch:
			if !sawDetect {
				t.Fatalf("repair rung before crc_detect: %+v", spans)
			}
			sawDeep = true
		case reqtrace.KindShardPlan:
			sawPlan = true
		}
	}
	if !sawDetect || !sawDeep || !sawPlan {
		t.Fatalf("expected shard_plan + crc_detect + deep rung, got %+v", spans)
	}

	// The health snapshot and the exemplar-annotated exposition both see
	// the published trace.
	h := c.Health()
	if h.TracesPublished == 0 || h.LastAnomalyAge < 0 {
		t.Fatalf("health missed the trace: published=%d age=%v", h.TracesPublished, h.LastAnomalyAge)
	}
	var out bytes.Buffer
	if err := c.NewRegistry().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `trace_id="00000000deadbeef"`) {
		t.Fatal("exposition missing the trace exemplar")
	}
}

// TestTraceCleanReadNotPublished pins the tail-sampling policy end to
// end: a healthy fast read produces no flight-recorder entry. It also
// pins that tracing does not change the read path: a traced clean
// resident read is served by the seqlock fast path, exactly as an
// untraced one is.
func TestTraceCleanReadNotPublished(t *testing.T) {
	c, err := NewConcurrent(traceConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := c.Write(64, buf); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	published, err := c.TraceRead(1, 64, buf)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if d := after.SeqlockReads - before.SeqlockReads; d != 1 {
		t.Fatalf("traced clean read: SeqlockReads +%d, want +1 (took the locked path)", d)
	}
	if d := after.SeqlockFallbacks - before.SeqlockFallbacks; d != 0 {
		t.Fatalf("traced clean read: SeqlockFallbacks +%d, want +0", d)
	}
	if published {
		t.Fatal("clean read published to the flight recorder")
	}
	if got := c.Tracer().Begun(); got != 1 {
		t.Fatalf("Begun = %d, want 1", got)
	}
	if h := c.Health(); h.TracesPublished != 0 || h.LastAnomalyAge != -1 {
		t.Fatalf("health shows anomalies on a clean engine: %+v", h)
	}
}

// TestTracedBatchPlanSpan pins the batch planner's single span: item
// count in Addr, shard-group count in Code, and no per-item span spam.
func TestTracedBatchPlanSpan(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 4
	cfg.Seed = 7
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	addrs := make([]uint64, n)
	data := make([]byte, n*64)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	tr := c.Tracer().Begin(2, 'B')
	if errs, err := c.WriteBatchTraced(addrs, data, tr); err != nil || errs != nil {
		t.Fatalf("write batch: %v %v", errs, err)
	}
	if errs, err := c.ReadBatchTraced(addrs, data, tr); err != nil || errs != nil {
		t.Fatalf("read batch: %v %v", errs, err)
	}
	spans := tr.Spans[:tr.N]
	var plans int
	for _, s := range spans {
		if s.Kind == reqtrace.KindBatchPlan {
			plans++
			if s.Addr != n || s.Code == 0 {
				t.Fatalf("batch plan span = %+v", s)
			}
		}
	}
	if plans != 2 {
		t.Fatalf("batch plan spans = %d, want 2 (one per batch)", plans)
	}
	c.Tracer().Finish(tr)
}
