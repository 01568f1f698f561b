package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"zcache/internal/zcluster"
	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

// loadThreads is the closed loop's width: two callers, each waiting for its
// replies before it sends again. It is fixed, not a flag, because every
// recorded number assumes it; the run refuses a host with fewer processors.
const loadThreads = 2

type transport int

const (
	viaTCP     transport = iota // zkvproto.Client → zkv.Server, pipelined
	viaCluster                  // zcluster.Client over three servers, one request in flight
	viaEmbed                    // Store.Get / Store.Set called directly
)

// kvSpec is one key-value workload. getPermille < 0 is cache-aside: GET, and
// SET on a miss.
type kvSpec struct {
	name        string
	via         transport
	keys        int
	theta       float64
	getPermille int
	pipeline    int
	rows        uint64
	nodes       int
	replication int
	persist     bool
}

var kvSpecs = []kvSpec{
	{name: "serve-hot", via: viaTCP, keys: 16384, theta: 0.99, getPermille: 950, pipeline: 16, rows: 4096, nodes: 1, replication: 1},
	{name: "serve-churn", via: viaTCP, keys: 131072, theta: 0, getPermille: 100, pipeline: 16, rows: 4096, nodes: 1, replication: 1},
	{name: "serve-cluster", via: viaCluster, keys: 65536, theta: 0.9, getPermille: -1, pipeline: 1, rows: 2048, nodes: 3, replication: 2},
	{name: "embed-aside", via: viaEmbed, keys: 131072, theta: 0.9, getPermille: -1, rows: 4096, nodes: 1, replication: 1},
	{name: "embed-persist", via: viaEmbed, keys: 131072, theta: 0.9, getPermille: -1, rows: 4096, nodes: 1, replication: 1, persist: true},
}

// kvSpecByName returns the named key-value workload; the name is one of the
// program's own, so a miss is a bug.
func kvSpecByName(name string) kvSpec {
	for _, s := range kvSpecs {
		if s.name == name {
			return s
		}
	}
	panic("no key-value workload " + name)
}

func (s kvSpec) storeConfig(node int) zkv.Config {
	return zkv.Config{Shards: 2, Ways: 4, Rows: s.rows, Levels: 2, Seed: 9 + uint64(node)}
}

// capacity is how many distinct keys the deployment can hold.
func (s kvSpec) capacity() int {
	return s.nodes * 2 * 4 * int(s.rows) / s.replication
}

// kvEnv is one set-up of a key-value workload: stores, servers, connections,
// prefilled and ready for timed phases.
type kvEnv struct {
	spec    kvSpec
	seed    uint64
	rk      *ranker
	stores  []*zkv.Store
	servers []*zkv.Server
	served  []chan error
	conns   []*zkvproto.Client
	cluster []*zcluster.Client
	dir     string

	setup       time.Duration
	memPerEntry float64
	// lastStats is what the stores counted during the latest timed phase.
	lastStats zkv.Stats
}

func (e *kvEnv) setupCost() (time.Duration, float64) { return e.setup, e.memPerEntry }

// verify has nothing to add: every reply of a key-value phase was checked
// as it arrived.
func (e *kvEnv) verify() (attempted, failed int64, err error) { return 0, 0, nil }

// liveHeap is the heap still reachable after two collections (the second
// frees what the first's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func setupKV(spec kvSpec, seed uint64, tmp string) (env *kvEnv, err error) {
	t0 := time.Now()
	env = &kvEnv{spec: spec, seed: seed}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	env.rk = newRanker(spec.keys, spec.theta)
	order := warmOrder(seed, env.rk, spec.capacity())
	heap0 := liveHeap()

	var addrs []string
	for node := 0; node < spec.nodes; node++ {
		cfg := spec.storeConfig(node)
		if spec.persist {
			if env.dir, err = os.MkdirTemp(tmp, spec.name+"-"); err != nil {
				return nil, err
			}
			cfg.PersistDir = env.dir
		}
		st, err := zkv.Open(cfg)
		if err != nil {
			return nil, fmt.Errorf("open store %d: %w", node, err)
		}
		env.stores = append(env.stores, st)
		if spec.via == viaEmbed {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := zkv.NewServer(st, zkv.ServerConfig{})
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		env.servers = append(env.servers, srv)
		env.served = append(env.served, done)
		addrs = append(addrs, ln.Addr().String())
	}
	for t := 0; t < loadThreads; t++ {
		switch spec.via {
		case viaTCP:
			c, err := zkvproto.Dial(addrs[0])
			if err != nil {
				return nil, err
			}
			env.conns = append(env.conns, c)
		case viaCluster:
			// Disjoint stamp ranges give the two writers a total order.
			c, err := zcluster.New(zcluster.Config{Nodes: addrs, Replication: spec.replication, StampBase: uint64(t+1) << 40})
			if err != nil {
				return nil, err
			}
			env.cluster = append(env.cluster, c)
		}
	}

	if err := env.prefill(order); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	heap1 := liveHeap()
	runtime.KeepAlive(order)
	resident := 0
	for _, st := range env.stores {
		resident += st.Len()
	}
	if resident == 0 || heap1 <= heap0 {
		return nil, fmt.Errorf("prefill left %d entries in %d heap bytes", resident, int64(heap1)-int64(heap0))
	}
	env.memPerEntry = float64(heap1-heap0) / float64(resident)
	env.setup = time.Since(t0)
	return env, nil
}

// prefill SETs the warm set through the same path the timed phase uses, the
// load threads sharing it in order.
func (e *kvEnv) prefill(order []uint32) error {
	ks := newKeyspace(e.seed)
	errs := make([]error, loadThreads)
	var wg sync.WaitGroup
	for t := 0; t < loadThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kb [8]byte
			var val [valBytes]byte
			pending := 0
			drain := func() error {
				if err := e.conns[t].Flush(); err != nil {
					return err
				}
				for ; pending > 0; pending-- {
					resp, err := e.conns[t].ReadReply()
					if err != nil {
						return err
					}
					if resp.Status != zkvproto.StatusOK {
						return fmt.Errorf("SET answered status %d", resp.Status)
					}
				}
				return nil
			}
			for i := t; i < len(order) && errs[t] == nil; i += loadThreads {
				k := ks.key(order[i])
				binary.LittleEndian.PutUint64(kb[:], k)
				fillValue(val[:], k)
				switch e.spec.via {
				case viaTCP:
					errs[t] = e.conns[t].QueueSet(kb[:], val[:])
					if pending++; errs[t] == nil && pending == e.spec.pipeline {
						errs[t] = drain()
					}
				case viaCluster:
					errs[t] = e.cluster[t].Set(kb[:], val[:])
				case viaEmbed:
					errs[t] = e.stores[0].Set(kb[:], val[:])
				}
			}
			if errs[t] == nil && pending > 0 {
				errs[t] = drain()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (e *kvEnv) close() error {
	var errs []error
	for _, c := range e.conns {
		errs = append(errs, c.Close())
	}
	for _, c := range e.cluster {
		errs = append(errs, c.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, srv := range e.servers {
		errs = append(errs, srv.Shutdown(ctx))
		if err := <-e.served[i]; !errors.Is(err, zkv.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, st := range e.stores {
		errs = append(errs, st.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// threadResult is what one load thread did in one timed phase.
type threadResult struct {
	slices    []sliceRec
	attempted int64
	failed    int64
	sets      int64 // SETs sent
	err       error
}

func (r *threadResult) slot(sinceStart, sliceDur time.Duration) *sliceRec {
	i := int(sinceStart / sliceDur)
	for len(r.slices) <= i {
		r.slices = append(r.slices, sliceRec{})
	}
	return &r.slices[i]
}

// sliceFor picks the slice length of a timed phase: a tenth of a second, or
// a quarter of a phase too short to hold four of those.
func sliceFor(dur time.Duration) time.Duration {
	if dur >= 400*time.Millisecond {
		return 100 * time.Millisecond
	}
	return dur / 4
}

// procSnap is the process's resource use at one instant.
type procSnap struct {
	user, sys time.Duration
	ctxsw     int64
	gcPause   time.Duration
	mallocs   uint64
}

func procSnapshot() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{
		user:    time.Duration(ru.Utime.Nano()),
		sys:     time.Duration(ru.Stime.Nano()),
		ctxsw:   ru.Nvcsw + ru.Nivcsw,
		gcPause: time.Duration(m.PauseTotalNs),
		mallocs: m.Mallocs,
	}
}

func (ph *phase) charge(before, after procSnap) {
	ph.cpuUser = after.user - before.user
	ph.cpuSys = after.sys - before.sys
	ph.ctxSwitches = after.ctxsw - before.ctxsw
	ph.gcPause = after.gcPause - before.gcPause
}

// statsFields lists the counters of a zkv.Stats that sum across stores and
// subtract across time.
func statsFields(s *zkv.Stats) []*uint64 {
	f := []*uint64{&s.Gets, &s.GetHits, &s.GetMisses, &s.GetLocked, &s.Sets, &s.Inserts, &s.Overwrites, &s.Evictions, &s.Relocations}
	for i := range s.WalkDepth {
		f = append(f, &s.WalkDepth[i])
	}
	return f
}

// storeStats sums the counters of the given stores.
func storeStats(stores ...*zkv.Store) zkv.Stats {
	var sum zkv.Stats
	for _, st := range stores {
		s := st.Stats()
		for i, p := range statsFields(&sum) {
			*p += *statsFields(&s)[i]
		}
	}
	return sum
}

// statsSince is what was counted between two snapshots.
func statsSince(before, after zkv.Stats) zkv.Stats {
	for i, p := range statsFields(&after) {
		*p -= *statsFields(&before)[i]
	}
	return after
}

// run drives the closed loop for dur and leaves what the stores counted in
// e.lastStats. With traced set, each thread records spans around its calls
// into the layers.
func (e *kvEnv) run(_ context.Context, dur time.Duration, traced bool) (phase, []*spanRec, error) {
	sliceDur := sliceFor(dur)
	results := make([]threadResult, loadThreads)
	recs := make([]*spanRec, loadThreads)
	statsBefore := storeStats(e.stores...)
	before := procSnapshot()
	t0 := time.Now()
	var wg sync.WaitGroup
	for t := range results {
		if traced {
			recs[t] = &spanRec{t0: t0}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch e.spec.via {
			case viaTCP:
				results[t] = e.runTCP(t, t0, dur, sliceDur, recs[t])
			case viaCluster:
				results[t] = e.runCluster(t, t0, dur, sliceDur, recs[t])
			case viaEmbed:
				results[t] = e.runEmbed(t, t0, dur, sliceDur, recs[t])
			}
		}()
	}
	wg.Wait()
	after := procSnapshot()
	statsAfter := storeStats(e.stores...)

	var slices [][]sliceRec
	var errs []error
	for _, r := range results {
		slices = append(slices, r.slices)
		errs = append(errs, r.err)
	}
	out := reducePhase(slices, sliceDur, int(dur/sliceDur))
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		out.sets += r.sets
	}
	out.done = out.attempted
	out.charge(before, after)
	e.lastStats = statsSince(statsBefore, statsAfter)
	return out, recs, errors.Join(errs...)
}

// runTCP is one connection's loop: generate a burst, queue it, flush, read
// every reply. An operation's latency runs from the moment it is queued to
// the moment its reply is decoded, so the wait behind the rest of its burst
// counts, as it does for a caller. A transport error ends the thread: the
// rest of the burst is failed and the run reports it.
func (e *kvEnv) runTCP(t int, t0 time.Time, dur, sliceDur time.Duration, rec *spanRec) (res threadResult) {
	c := e.conns[t]
	g := newOpGen(e.seed, t, e.rk, e.spec.getPermille)
	n := e.spec.pipeline
	keys, sets, queued := make([]uint64, n), make([]bool, n), make([]time.Time, n)
	var kb [8]byte
	var val [valBytes]byte
	for burst := int32(0); time.Since(t0) < dur; burst++ {
		sb := rec.begin("loadgen.burst", -1, burst)
		sg := rec.begin("loadgen.gen", sb, burst)
		for i := range keys {
			keys[i], sets[i] = g.next()
		}
		rec.end(sg)

		sq := rec.begin("zkvproto.client.queue", sb, burst)
		for i, k := range keys {
			binary.LittleEndian.PutUint64(kb[:], k)
			queued[i] = time.Now()
			if sets[i] {
				res.sets++
				fillValue(val[:], k)
				res.err = c.QueueSet(kb[:], val[:])
			} else {
				res.err = c.QueueGet(kb[:])
			}
			if res.err != nil {
				res.attempted, res.failed = res.attempted+1, res.failed+1
				return res
			}
		}
		rec.end(sq)
		res.attempted += int64(n)

		sf := rec.begin("zkvproto.client.flush", sb, burst)
		res.err = c.Flush()
		rec.end(sf)
		if res.err != nil {
			res.failed += int64(n)
			return res
		}

		sr := rec.begin("zkvproto.client.read", sb, burst)
		s1 := rec.begin("zkvproto.client.read.first", sr, burst)
		for i, k := range keys {
			resp, err := c.ReadReply()
			now := time.Now()
			if i == 0 {
				rec.end(s1)
			}
			if err != nil {
				res.err = err
				res.failed += int64(n - i)
				return res
			}
			s := res.slot(now.Sub(t0), sliceDur)
			s.ops++
			s.lat = append(s.lat, uint32(now.Sub(queued[i])))
			switch {
			case sets[i] && resp.Status == zkvproto.StatusOK:
			case !sets[i] && resp.Status == zkvproto.StatusOK:
				s.gets++
				s.hits++
				if !checkValue(resp.Val, k) {
					res.failed++
				}
			case !sets[i] && resp.Status == zkvproto.StatusNotFound:
				s.gets++
			default: // StatusBusy, StatusErr, or a reply that does not fit the request
				res.failed++
			}
		}
		rec.end(sr)
		rec.end(sb)
	}
	return res
}

// runCluster is one cluster client's cache-aside loop, strictly one request
// in flight: GET, and on a miss SET. One iteration is one operation.
func (e *kvEnv) runCluster(t int, t0 time.Time, dur, sliceDur time.Duration, rec *spanRec) (res threadResult) {
	cl := e.cluster[t]
	g := newOpGen(e.seed, t, e.rk, e.spec.getPermille)
	var kb [8]byte
	var val [valBytes]byte
	buf := make([]byte, 0, valBytes)
	for it := int32(0); ; it++ {
		k, _ := g.next()
		binary.LittleEndian.PutUint64(kb[:], k)
		start := time.Now()
		if start.Sub(t0) >= dur {
			return res
		}
		res.attempted++
		sg := rec.begin("zcluster.get", -1, it)
		v, ok, err := cl.Get(kb[:], buf[:0])
		rec.end(sg)
		switch {
		case err != nil:
			res.failed++
		case ok:
			if !checkValue(v, k) {
				res.failed++
			}
		default:
			res.sets++
			fillValue(val[:], k)
			ss := rec.begin("zcluster.set", -1, it)
			err = cl.Set(kb[:], val[:])
			rec.end(ss)
			if err != nil {
				res.failed++
			}
		}
		end := time.Now()
		s := res.slot(end.Sub(t0), sliceDur)
		s.ops++
		s.gets++
		if ok {
			s.hits++
		}
		s.lat = append(s.lat, uint32(end.Sub(start)))
	}
}

// embedBlock is how many cache-aside iterations share one pair of clock
// reads. Timing a single 100-ns call would measure the clock.
const embedBlock = 64

// runEmbed is one goroutine's cache-aside loop on the store itself. One
// iteration is one operation; its latency is its block's mean.
func (e *kvEnv) runEmbed(t int, t0 time.Time, dur, sliceDur time.Duration, rec *spanRec) (res threadResult) {
	st := e.stores[0]
	g := newOpGen(e.seed, t, e.rk, e.spec.getPermille)
	var keys [embedBlock]uint64
	var kb [8]byte
	var val [valBytes]byte
	buf := make([]byte, 0, valBytes)
	for b := int32(0); time.Since(t0) < dur; b++ {
		sb := rec.begin("loadgen.block", -1, b)
		sg := rec.begin("loadgen.gen", sb, b)
		for i := range keys {
			keys[i], _ = g.next()
		}
		rec.end(sg)
		start := time.Now()
		sc := rec.begin("zkv.calls", sb, b)
		hits := int64(0)
		for _, k := range keys {
			binary.LittleEndian.PutUint64(kb[:], k)
			if v, ok := st.Get(kb[:], buf[:0]); ok {
				hits++
				if !checkValue(v, k) {
					res.failed++
				}
			} else {
				res.sets++
				fillValue(val[:], k)
				if err := st.Set(kb[:], val[:]); err != nil {
					res.failed++
				}
			}
		}
		end := time.Now()
		rec.end(sc)
		rec.end(sb)
		res.attempted += embedBlock
		s := res.slot(end.Sub(t0), sliceDur)
		s.ops += embedBlock
		s.gets += embedBlock
		s.hits += hits
		s.lat = append(s.lat, uint32(end.Sub(start)/embedBlock))
	}
	return res
}
