package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/server/wire"
)

// clientSpan is one client.op span: a worker's call into the client,
// from the call to its return.
type clientSpan struct {
	start, end int64 // ns since the recorder's base
}

// serverSpan is one server.handle span: the handler's residency for one
// request, keyed by the trace id the client put in the frame.
type serverSpan struct {
	start, end int64
	trace      uint64
	worker     int32
}

// recorder is the benchmark-side tracer of a traced run. It lives
// entirely outside the program: workers record client.op spans around
// their client calls, a middleware around the server's handler records
// server.handle spans, the client's NextTraceID hook assigns the trace
// ids, and a counting listener measures the bytes and writes the server
// moves.
type recorder struct {
	base      time.Time
	workload  string
	workers   int
	recording *atomic.Bool
	ids       atomic.Uint64

	mu     sync.Mutex
	server []serverSpan

	bodies sync.Pool
	conns  connCounter
}

func newRecorder(cfg config, recording *atomic.Bool) *recorder {
	r := &recorder{
		base:      time.Now(),
		workload:  cfg.workload,
		workers:   cfg.workers,
		recording: recording,
		server:    make([]serverSpan, 0, cfg.workers*sampleCap(cfg.window)),
	}
	r.ids.Store(cfg.seed << 32)
	r.bodies.New = func() any { return new(bytes.Buffer) }
	return r
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.base)) }

// nextTraceID is the client's trace-id source: seeded, so a run's ids
// are reproducible.
func (r *recorder) nextTraceID() uint64 { return r.ids.Add(1) }

// middleware records a server.handle span around next. It reads the
// request frame to learn its trace id and first line (which names the
// worker that sent it), then hands next an identical body.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		body := r.bodies.Get().(*bytes.Buffer)
		body.Reset()
		_, rerr := body.ReadFrom(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body.Bytes()))
		next.ServeHTTP(w, req)
		end := time.Now()
		trace, line, ok := peekFrame(body.Bytes())
		r.bodies.Put(body)
		if rerr != nil || !ok || !r.recording.Load() {
			return
		}
		s := serverSpan{r.since(start), r.since(end), trace, int32(owner(r.workload, line, r.workers))}
		r.mu.Lock()
		r.server = append(r.server, s)
		r.mu.Unlock()
	})
}

// peekFrame reads the trace id and the first address's line from a
// binary-codec request frame (layout in package wire); ok is false for
// frames without both.
func peekFrame(b []byte) (trace, line uint64, ok bool) {
	const fixed = 8 // length prefix + version, codec, op, flags
	if len(b) < fixed || b[5] != wire.CodecBinary || b[7]&wire.FlagTrace == 0 {
		return 0, 0, false
	}
	off := fixed
	if len(b) < off+8 {
		return 0, 0, false
	}
	trace = binary.BigEndian.Uint64(b[off:])
	off += 8
	if b[7]&wire.FlagDeadline != 0 {
		off += 4
	}
	if len(b) < off+1 {
		return 0, 0, false
	}
	off += 1 + int(b[off]) // tenant
	if len(b) < off+12 || binary.BigEndian.Uint32(b[off:]) == 0 {
		return 0, 0, false
	}
	return trace, binary.BigEndian.Uint64(b[off+4:]) / 64, true
}

// connCounter counts the server's connections and what they carry.
type connCounter struct {
	accepted atomic.Int64
	bytes    atomic.Int64 // read plus written
	writes   atomic.Int64 // Write calls
}

func (r *recorder) listener(ln net.Listener) net.Listener {
	return &countingListener{Listener: ln, c: &r.conns}
}

type countingListener struct {
	net.Listener
	c *connCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.c.accepted.Add(1)
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

// pairing joins each worker's client.op spans with the server.handle
// spans of its requests.
type pairing struct {
	clients [][]clientSpan
	server  []serverSpan
	// parent[i] is the index into the worker's clients of server[i]'s
	// op, or -1.
	parent []int
	// handle sums, per client op, the server time of its attempts;
	// trace is the last attempt's id (0 when none was recorded).
	handle [][]int64
	trace  [][]uint64
}

// pair matches server spans to client ops. A worker has one request in
// flight at a time, so a server span belongs to the op of its worker
// whose span contains it; a retried op owns several.
func (r *recorder) pair(clients [][]clientSpan) *pairing {
	r.mu.Lock()
	srv := slices.Clone(r.server)
	r.mu.Unlock()
	slices.SortFunc(srv, func(a, b serverSpan) int {
		return cmp.Or(cmp.Compare(a.worker, b.worker), cmp.Compare(a.start, b.start))
	})
	p := &pairing{clients: clients, server: srv, parent: make([]int, len(srv))}
	for _, cs := range clients {
		p.handle = append(p.handle, make([]int64, len(cs)))
		p.trace = append(p.trace, make([]uint64, len(cs)))
	}
	j, cur := 0, int32(-1)
	for i, s := range srv {
		p.parent[i] = -1
		if s.worker != cur {
			cur, j = s.worker, 0
		}
		if int(s.worker) >= len(clients) {
			continue
		}
		cs := clients[s.worker]
		for j < len(cs) && cs[j].end < s.start {
			j++
		}
		if j < len(cs) && cs[j].start <= s.start && s.end <= cs[j].end {
			p.parent[i] = j
			p.handle[s.worker][j] += s.end - s.start
			p.trace[s.worker][j] = s.trace
		}
	}
	return p
}

// handleTimes are the server.handle durations; h2cTimes, per paired
// client op, its duration less the server time inside it — the client
// policy, the codec on the client side, and the h2c transport both
// ways.
func (p *pairing) handleTimes() []uint32 {
	out := make([]uint32, len(p.server))
	for i, s := range p.server {
		out[i] = uint32(min(s.end-s.start, 1<<32-1))
	}
	return out
}

func (p *pairing) h2cTimes() []uint32 {
	var out []uint32
	for w, cs := range p.clients {
		for j, c := range cs {
			if p.trace[w][j] == 0 {
				continue
			}
			out = append(out, uint32(max(0, min(c.end-c.start-p.handle[w][j], 1<<32-1))))
		}
	}
	return out
}

// write stores every span as one JSON line: id, parent (0 for a root),
// trace id, name, start and end in ns since the run began.
func (p *pairing) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	emit := func(id, parent int, trace uint64, name string, start, end int64) {
		// A write error resurfaces from Flush.
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"trace":"%016x","name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			id, parent, trace, name, start, end)
	}
	id := 0
	ids := make([][]int, len(p.clients))
	for w, cs := range p.clients {
		ids[w] = make([]int, len(cs))
		for j, c := range cs {
			id++
			ids[w][j] = id
			emit(id, 0, p.trace[w][j], "client.op", c.start, c.end)
		}
	}
	for i, s := range p.server {
		id++
		parent := 0
		if j := p.parent[i]; j >= 0 {
			parent = ids[s.worker][j]
		}
		emit(id, parent, s.trace, "server.handle", s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
