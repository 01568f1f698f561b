// Package netchaos is an in-process TCP fault-injection proxy for testing
// the serving path under adverse networks.
//
// A Proxy listens on a local address and forwards each connection to one
// upstream address, injecting faults — latency, jitter, bandwidth caps,
// blackholes, mid-stream resets, partial writes — according to a Spec
// written in the internal/failpoint spec grammar. Fault schedules are
// seed-deterministic per connection: connection i (in accept order) draws
// its per-chunk decisions from a generator seeded by (Spec seed, i,
// direction), so a chaos run with the same seed and the same connection
// sequence injects the same faults. That is what turns "the client survives
// bad networks" from an assertion into a regression test.
package netchaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zcache/internal/hash"
)

// Proxy forwards TCP connections to an upstream address through the fault
// model in its Spec. Create with New, start with Start, inspect with
// Stats, and tear down with Close.
type Proxy struct {
	upstream string
	spec     *Spec

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   atomic.Bool
	wg       sync.WaitGroup
	acceptWG sync.WaitGroup

	nConns   atomic.Uint64
	resets   atomic.Uint64
	drops    atomic.Uint64
	delayed  atomic.Uint64
	partials atomic.Uint64
	bytesC2S atomic.Uint64
	bytesS2C atomic.Uint64
}

// Stats is a snapshot of the proxy's fault and traffic counters.
type Stats struct {
	// Conns is the number of connections accepted.
	Conns uint64
	// Resets counts mid-stream RST injections (each kills one connection).
	Resets uint64
	// Drops counts directions turned into blackholes.
	Drops uint64
	// DelayedChunks counts chunks that slept under the latency fault.
	DelayedChunks uint64
	// PartialChunks counts chunks forwarded as split writes.
	PartialChunks uint64
	// BytesC2S and BytesS2C count bytes actually forwarded (dropped
	// blackhole bytes excluded).
	BytesC2S, BytesS2C uint64
}

// New builds a proxy that forwards to upstream under spec's fault model.
func New(upstream string, spec *Spec) *Proxy {
	return &Proxy{upstream: upstream, spec: spec, conns: make(map[net.Conn]struct{})}
}

// Start binds addr ("" means an ephemeral localhost port) and begins
// accepting in a background goroutine.
func (p *Proxy) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.ln = ln
	p.acceptWG.Add(1)
	go p.acceptLoop()
	return nil
}

// Addr is the proxy's bound listen address (valid after Start).
func (p *Proxy) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Close stops accepting, severs every live connection, and waits for the
// forwarding goroutines to finish.
func (p *Proxy) Close() error {
	p.closed.Store(true)
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.acceptWG.Wait()
	p.wg.Wait()
	return err
}

// Stats snapshots the counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:         p.nConns.Load(),
		Resets:        p.resets.Load(),
		Drops:         p.drops.Load(),
		DelayedChunks: p.delayed.Load(),
		PartialChunks: p.partials.Load(),
		BytesC2S:      p.bytesC2S.Load(),
		BytesS2C:      p.bytesS2C.Load(),
	}
}

func (p *Proxy) acceptLoop() {
	defer p.acceptWG.Done()
	for {
		cli, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.nConns.Add(1) - 1
		p.wg.Add(1)
		go p.handle(cli, idx)
	}
}

// handle proxies one client connection to a fresh upstream connection,
// with an independent fault pump per direction.
func (p *Proxy) handle(cli net.Conn, idx uint64) {
	defer p.wg.Done()
	srv, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		cli.Close()
		return
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		cli.Close()
		srv.Close()
		return
	}
	p.conns[cli] = struct{}{}
	p.conns[srv] = struct{}{}
	p.mu.Unlock()

	var pw sync.WaitGroup
	pw.Add(2)
	go func() { defer pw.Done(); p.pump(cli, srv, idx, 0, &p.bytesC2S) }()
	go func() { defer pw.Done(); p.pump(srv, cli, idx, 1, &p.bytesS2C) }()
	pw.Wait()

	cli.Close()
	srv.Close()
	p.mu.Lock()
	delete(p.conns, cli)
	delete(p.conns, srv)
	p.mu.Unlock()
}

// xorshift64* step; the per-pump stream is the sole randomness source, so
// a pump's whole fault schedule is a pure function of (seed, conn, dir).
func next(rng *uint64) uint64 {
	*rng ^= *rng >> 12
	*rng ^= *rng << 25
	*rng ^= *rng >> 27
	return *rng * 0x2545f4914f6cdd1d
}

// frac maps a draw to [0,1).
func frac(draw uint64) float64 { return float64(draw>>11) / float64(uint64(1)<<53) }

// pump forwards src→dst, evaluating every configured fault per chunk.
func (p *Proxy) pump(src, dst net.Conn, idx uint64, dir int, fwd *atomic.Uint64) {
	rng := hash.Mix64(p.spec.seed ^ (2*idx+uint64(dir)+1)*0x9e3779b97f4a7c15)
	buf := make([]byte, 32<<10)
	fires := make([]int, len(p.spec.faults))
	blackhole := false
	var paced uint64 // bytes already paced under the bandwidth cap
	windowStart := time.Now()
	// forward writes b to dst. The bytes are counted before the write, so
	// whoever has received them finds them in Stats already; what a failed
	// write did not deliver is taken back.
	forward := func(b []byte) bool {
		fwd.Add(uint64(len(b)))
		w, err := dst.Write(b)
		if err != nil {
			fwd.Add(-uint64(len(b) - w))
		}
		return err == nil
	}
	for {
		n, err := src.Read(buf)
		if n > 0 && !blackhole {
			chunk := buf[:n]
			fragment := 0 // >0: forward as a split write with this first-fragment size
			for i := range p.spec.faults {
				f := &p.spec.faults[i]
				if f.dir >= 0 && f.dir != dir {
					continue
				}
				if f.times > 0 && fires[i] >= f.times {
					continue
				}
				if f.prob < 1 && frac(next(&rng)) >= f.prob {
					continue
				}
				fires[i]++
				switch f.kind {
				case Latency:
					d := f.delay
					if f.jitter > 0 {
						d += time.Duration(frac(next(&rng)) * float64(f.jitter))
					}
					if d > 0 {
						p.delayed.Add(1)
						time.Sleep(d)
					}
				case Bandwidth:
					paced += uint64(n)
					ideal := time.Duration(float64(paced) / float64(f.bps) * float64(time.Second))
					if ahead := ideal - time.Since(windowStart); ahead > 0 {
						time.Sleep(ahead)
					}
				case Drop:
					blackhole = true
					p.drops.Add(1)
				case Reset:
					p.resets.Add(1)
					hardClose(src)
					hardClose(dst)
					return
				case Partial:
					fragment = 1 + int(next(&rng)%uint64(f.max))
					if fragment >= n {
						fragment = 0
					}
				}
			}
			if blackhole {
				continue // swallow; keep draining so the sender never blocks
			}
			if fragment > 0 {
				p.partials.Add(1)
				if !forward(chunk[:fragment]) {
					return
				}
				// A breath between fragments so the peer actually observes
				// a short read rather than a kernel-coalesced full frame.
				time.Sleep(time.Millisecond)
				chunk = chunk[fragment:]
			}
			if !forward(chunk) {
				return
			}
		}
		if err != nil {
			// Propagate half-close so pipelined tails still drain.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// hardClose closes a TCP connection with SO_LINGER 0 so the peer sees an
// RST rather than an orderly FIN.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// Describe is a one-line human summary for logs and reports.
func (s Stats) Describe() string {
	return fmt.Sprintf("%d conns, %d resets, %d blackholes, %d delayed, %d partial, %d B c2s / %d B s2c",
		s.Conns, s.Resets, s.Drops, s.DelayedChunks, s.PartialChunks, s.BytesC2S, s.BytesS2C)
}
