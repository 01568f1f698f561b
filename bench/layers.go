package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/repl"
	"zcache/internal/slotstore"
	"zcache/internal/zcluster"
	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

// The layer replay feeds one workload's operation stream to each layer in
// isolation, on one thread, through the layer's public functions. Its
// nanosecond figures are what a layer costs when nothing else runs; its
// counts repeat exactly for a seed.

// replayOps is how many operations of the stream each layer is timed over
// in a full-length run, and replayReps how many times: a figure is the median
// of the repeats.
const (
	replayOps  = 1 << 16
	replayReps = 5
)

var sink uint64 // keeps timed results alive

// nsPer runs f replayReps times; f does n items of work on each call and is
// told which repeat it is, so that a stateful layer can be handed fresh
// input. It returns the median nanoseconds per item.
func nsPer(n int, f func(rep int)) float64 {
	v := make([]float64, replayReps)
	for rep := range v {
		t0 := time.Now()
		f(rep)
		v[rep] = float64(time.Since(t0)) / float64(n)
	}
	return median(v)
}

// op is one request of an expanded stream.
type op struct {
	key uint64
	set bool
}

// replayStream is thread 0's stream of a key-value workload, expanded to the
// requests it really issues (a cache-aside GET that misses is followed by its
// SET), with the key sets the class-pure measurements need.
type replayStream struct {
	spec kvSpec
	cfg  zkv.Config
	ks   keyspace
	n    int    // operations per timed repeat
	next uint32 // first rank fresh has not handed out
	ops  []op
	fps  []uint64 // fingerprint of each op's key
	// mixed is what a store counted while the stream was expanded through
	// it: the workload's own mix of hits, misses, overwrites and inserts.
	mixed zkv.Stats
}

// fresh returns n keys outside the workload's key space that no earlier call
// returned: certain GET misses and certain inserts.
func (rs *replayStream) fresh(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rs.ks.key(rs.next)
		rs.next++
	}
	return out
}

func newReplayStream(spec kvSpec, seed uint64, n int) (*replayStream, error) {
	rs := &replayStream{spec: spec, cfg: spec.storeConfig(0), ks: newKeyspace(seed), n: n, next: uint32(spec.keys)}
	rk := newRanker(spec.keys, spec.theta)
	st, err := zkv.Open(rs.cfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var kb [8]byte
	var val [valBytes]byte
	set := func(k uint64) error {
		binary.LittleEndian.PutUint64(kb[:], k)
		fillValue(val[:], k)
		return st.Set(kb[:], val[:])
	}
	for _, rank := range warmOrder(seed, rk, st.Capacity()) {
		if err := set(rs.ks.key(rank)); err != nil {
			return nil, err
		}
	}
	before := storeStats(st)
	g := newOpGen(seed, 0, rk, spec.getPermille)
	buf := make([]byte, 0, valBytes)
	for len(rs.ops) < n {
		k, isSet := g.next()
		binary.LittleEndian.PutUint64(kb[:], k)
		if !isSet {
			rs.ops = append(rs.ops, op{k, false})
			if _, ok := st.Get(kb[:], buf[:0]); ok || spec.getPermille >= 0 {
				continue
			}
		}
		rs.ops = append(rs.ops, op{k, true})
		if err := set(k); err != nil {
			return nil, err
		}
	}
	rs.mixed = statsSince(before, storeStats(st))
	rs.fps = make([]uint64, len(rs.ops))
	for i, o := range rs.ops {
		binary.LittleEndian.PutUint64(kb[:], o.key)
		rs.fps[i] = hash.Bytes64(kb[:])
	}
	return rs, nil
}

// replayKV measures every key-value layer on rs. tmp holds the files of the
// persistent measurements.
func replayKV(rs *replayStream, seed uint64, tmp string, m metricSet) error {
	steps := []func() error{
		func() error { return replayLoadgen(rs, seed, m) },
		func() error { return replayHashRepl(rs, m) },
		func() error { return replayCache(rs, m) },
		func() error { return replayStore(rs, tmp, m) },
		func() error { return replaySlotstore(rs, tmp, m) },
		func() error { return replayProto(rs, m) },
		func() error { return replayRoute(rs, m) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	w := rs.mixed.WalkDepth
	var walks, depth float64
	for i, c := range w {
		walks += float64(c)
		depth += float64(i) * float64(c)
	}
	sets := float64(max(rs.mixed.Sets, 1))
	m.set("zkv.evictions_per_set", float64(rs.mixed.Evictions)/sets)
	m.set("zkv.relocations_per_set", float64(rs.mixed.Relocations)/sets)
	m.set("zkv.walk_depth_mean", depth/max(walks, 1))
	m.set("zkv.set_over_walk", m["zkv.set_insert_ns"]/m["cache.zcache_miss_ns"])
	return nil
}

// replayLoadgen times the benchmark's own per-operation work: drawing a key
// and deriving a SET's value, and checking a GET hit's value.
func replayLoadgen(rs *replayStream, seed uint64, m metricSet) error {
	rk := newRanker(rs.spec.keys, rs.spec.theta)
	var val [valBytes]byte
	m.set("loadgen.gen_ns_per_op", nsPer(rs.n, func(int) {
		g := newOpGen(seed, 0, rk, rs.spec.getPermille)
		for i := 0; i < rs.n; i++ {
			k, set := g.next()
			if set {
				fillValue(val[:], k)
			}
			sink += k
		}
	}))
	fillValue(val[:], rs.ops[0].key)
	bad := 0
	m.set("loadgen.check_ns_per_hit", nsPer(rs.n, func(int) {
		for i := 0; i < rs.n; i++ {
			if !checkValue(val[:], rs.ops[0].key) {
				bad++
			}
		}
	}))
	if bad > 0 {
		return errors.New("loadgen: a derived value failed its own check")
	}
	return nil
}

func replayHashRepl(rs *replayStream, m metricSet) error {
	var kb [8]byte
	m.set("hash.bytes64_ns", nsPer(len(rs.ops), func(int) {
		for _, o := range rs.ops {
			binary.LittleEndian.PutUint64(kb[:], o.key)
			sink += hash.Bytes64(kb[:])
		}
	}))
	fns := make([]*hash.H3, rs.cfg.Ways)
	for w := range fns {
		var err error
		if fns[w], err = hash.NewH3(rs.cfg.Seed+uint64(w), rs.cfg.Rows); err != nil {
			return err
		}
	}
	rows := make([]uint64, len(fns))
	m.set("hash.rows4_ns", nsPer(len(rs.fps), func(int) {
		for _, fp := range rs.fps {
			hash.WayRows(fns, fp, rows)
			sink += rows[0]
		}
	}))

	blocks := rs.cfg.Ways * int(rs.cfg.Rows)
	pol, err := repl.PaperBucketedLRU(blocks)
	if err != nil {
		return err
	}
	for id := 0; id < blocks; id++ {
		pol.OnInsert(repl.BlockID(id), uint64(id))
	}
	ids := make([]repl.BlockID, len(rs.fps))
	for i, fp := range rs.fps {
		ids[i] = repl.BlockID(fp % uint64(blocks))
	}
	m.set("repl.blru_touch_ns", nsPer(len(ids), func(int) {
		for _, id := range ids {
			pol.OnAccess(id, false)
		}
	}))
	const cands = 16 // the Z4/16 walk's candidate count
	m.set("repl.blru_select16_ns", nsPer(len(ids)-cands, func(int) {
		for i := 0; i+cands < len(ids); i++ {
			sink += uint64(pol.Select(ids[i : i+cands]))
		}
	}))
	return nil
}

// replayCache drives the eviction core the store wraps (zkv.NewRefCache: the
// simulator's L2-bank construction) and the two conventional arrays of the
// same geometry with the stream's fingerprints as line addresses.
func replayCache(rs *replayStream, m metricSet) error {
	z, err := zkv.NewRefCache(rs.cfg)
	if err != nil {
		return err
	}
	var kb [8]byte
	fpOf := func(k uint64) uint64 {
		binary.LittleEndian.PutUint64(kb[:], k)
		return hash.Bytes64(kb[:])
	}
	// Fill past capacity so that every later miss evicts.
	fill := rs.fresh(2 * z.Array().Blocks())
	for _, k := range fill {
		z.AccessSlot(fpOf(k), false)
	}
	var resident []uint64
	for _, k := range fill {
		if fp := fpOf(k); z.Contains(fp) {
			resident = append(resident, fp)
		}
	}
	if len(resident) == 0 {
		return errors.New("cache: nothing resident after the fill")
	}
	m0 := procSnapshot().mallocs
	wrong := 0
	m.set("cache.zcache_hit_ns", nsPer(len(resident), func(int) {
		for _, fp := range resident {
			if _, hit := z.AccessSlot(fp, false); !hit {
				wrong++
			}
		}
	}))
	arr, ok := z.Array().(*cache.ZCache)
	if !ok {
		return fmt.Errorf("cache: reference array is %T", z.Array())
	}
	walks0, levels0 := arr.WalkProfile()
	ctr0, st0 := z.Counters(), z.Stats()
	missKeys := make([][]uint64, replayReps)
	for rep := range missKeys {
		missKeys[rep] = rs.fresh(rs.n)
		for i, k := range missKeys[rep] {
			missKeys[rep][i] = fpOf(k)
		}
	}
	m.set("cache.zcache_miss_ns", nsPer(rs.n, func(rep int) {
		for _, fp := range missKeys[rep] {
			if _, hit := z.AccessSlot(fp, false); hit {
				wrong++
			}
		}
	}))
	accesses := replayReps * (len(resident) + rs.n)
	m.set("cache.allocs_per_access", float64(procSnapshot().mallocs-m0)/float64(accesses))
	if wrong > 0 {
		return fmt.Errorf("cache: %d accesses of the class-pure streams hit or missed out of class", wrong)
	}
	walks1, levels1 := arr.WalkProfile()
	walks := float64(walks1 - walks0)
	var cands, reads float64
	for i := range levels1 {
		cands += float64(levels1[i].Candidates - levels0[i].Candidates)
		reads += float64(levels1[i].TagReads - levels0[i].TagReads)
	}
	m.set("cache.candidates_per_walk", cands/walks)
	m.set("cache.tag_reads_per_walk", reads/walks)
	m.set("cache.relocations_per_miss", float64(z.Counters().Relocations-ctr0.Relocations)/float64(z.Stats().Misses-st0.Misses))

	// The conventional arrays see the workload's own mix of hits and misses.
	h3, err := hash.H3Family{Seed: rs.cfg.Seed}.New(rs.cfg.Ways, rs.cfg.Rows)
	if err != nil {
		return err
	}
	sa, err := cache.NewSetAssoc(rs.cfg.Ways, rs.cfg.Rows, h3[0])
	if err != nil {
		return err
	}
	sk, err := cache.NewSkew(rs.cfg.Rows, h3)
	if err != nil {
		return err
	}
	for _, a := range []struct {
		name  string
		array cache.Array
	}{{"cache.setassoc_access_ns", sa}, {"cache.skew_access_ns", sk}} {
		pol, err := repl.PaperBucketedLRU(a.array.Blocks())
		if err != nil {
			return err
		}
		c, err := cache.New(a.array, pol, 0)
		if err != nil {
			return err
		}
		m.set(a.name, nsPer(len(rs.fps), func(int) {
			for i, fp := range rs.fps {
				c.AccessSlot(fp, rs.ops[i].set)
			}
		}))
	}
	return nil
}

// replayStore times the store's four operation classes on class-pure
// streams against a fresh, full store, and inserts again with persistence on.
func replayStore(rs *replayStream, tmp string, m metricSet) error {
	var kb [8]byte
	var val [valBytes]byte
	buf := make([]byte, 0, valBytes)
	// open returns a store filled past capacity, so that nearly every later
	// insert evicts, and the keys it was filled with.
	open := func(persistDir string) (*zkv.Store, []uint64, error) {
		cfg := rs.cfg
		cfg.PersistDir = persistDir
		st, err := zkv.Open(cfg)
		if err != nil {
			return nil, nil, err
		}
		fill := rs.fresh(2 * st.Capacity())
		for _, k := range fill {
			binary.LittleEndian.PutUint64(kb[:], k)
			fillValue(val[:], k)
			if err := st.Set(kb[:], val[:]); err != nil {
				st.Close()
				return nil, nil, err
			}
		}
		return st, fill, nil
	}
	inserts := func(st *zkv.Store, failed *int) float64 {
		keys := make([][]uint64, replayReps)
		for rep := range keys {
			keys[rep] = rs.fresh(rs.n)
		}
		return nsPer(rs.n, func(rep int) {
			for _, k := range keys[rep] {
				binary.LittleEndian.PutUint64(kb[:], k)
				fillValue(val[:], k)
				if st.Set(kb[:], val[:]) != nil {
					*failed++
				}
			}
		})
	}

	st, fill, err := open("")
	if err != nil {
		return err
	}
	defer st.Close()
	wrong := 0
	var resident []uint64
	for _, k := range fill {
		binary.LittleEndian.PutUint64(kb[:], k)
		if v, ok := st.Get(kb[:], buf[:0]); ok {
			resident = append(resident, k)
			if !checkValue(v, k) {
				wrong++
			}
		}
	}
	if len(resident) == 0 {
		return errors.New("zkv: nothing resident after the fill")
	}
	absent := rs.fresh(rs.n)
	m0 := procSnapshot().mallocs
	m.set("zkv.get_hit_ns", nsPer(len(resident), func(int) {
		for _, k := range resident {
			binary.LittleEndian.PutUint64(kb[:], k)
			if _, ok := st.Get(kb[:], buf[:0]); !ok {
				wrong++
			}
		}
	}))
	m.set("zkv.get_miss_ns", nsPer(len(absent), func(int) {
		for _, k := range absent {
			binary.LittleEndian.PutUint64(kb[:], k)
			if _, ok := st.Get(kb[:], buf[:0]); ok {
				wrong++
			}
		}
	}))
	m.set("zkv.set_overwrite_ns", nsPer(len(resident), func(int) {
		for _, k := range resident {
			binary.LittleEndian.PutUint64(kb[:], k)
			fillValue(val[:], k)
			if st.Set(kb[:], val[:]) != nil {
				wrong++
			}
		}
	}))
	before := storeStats(st)
	m.set("zkv.set_insert_ns", inserts(st, &wrong))
	ops := replayReps * (2*len(resident) + len(absent) + rs.n)
	m.set("zkv.allocs_per_op", float64(procSnapshot().mallocs-m0)/float64(ops))
	// A full zcache still finds the odd empty slot among its candidates.
	if d := statsSince(before, storeStats(st)); d.Inserts != uint64(replayReps*rs.n) || d.Evictions < d.Inserts*9/10 {
		return fmt.Errorf("zkv: %d fresh SETs made %d inserts and %d evictions", replayReps*rs.n, d.Inserts, d.Evictions)
	}

	dir, err := os.MkdirTemp(tmp, "replay-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pst, _, err := open(dir)
	if err != nil {
		return err
	}
	m.set("zkv.set_insert_persist_ns", inserts(pst, &wrong))
	if err := pst.Close(); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("zkv: %d operations of the class-pure streams failed or fell out of class", wrong)
	}
	return nil
}

// replaySlotstore times the persistence mirror's primitives on a file of one
// shard's geometry, with the stream's keys and values.
func replaySlotstore(rs *replayStream, tmp string, m metricSet) error {
	if !slotstore.Supported() {
		return errors.New("slotstore: no mmap backend on this platform")
	}
	dir, err := os.MkdirTemp(tmp, "replay-slots-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	slots := rs.cfg.Ways * int(rs.cfg.Rows)
	cfg := slotstore.Config{Slots: slots, Seed: rs.cfg.Seed, Ways: rs.cfg.Ways, Levels: rs.cfg.Levels, Rows: rs.cfg.Rows, ShardCount: 1}
	path := filepath.Join(dir, "shard.slc")
	s, err := slotstore.Create(path, cfg)
	if err != nil {
		return err
	}
	open := true
	defer func() {
		if open {
			s.Close(false)
		}
	}()

	// Half the slots hold entries; the other half is where moves land.
	half := slots / 2
	keys := rs.fresh(half)
	fps := make([]uint64, half)
	var kbs [][8]byte
	for i, k := range keys {
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], k)
		kbs = append(kbs, kb)
		fps[i] = hash.Bytes64(kb[:])
	}
	var val [valBytes]byte
	fillValue(val[:], keys[0])
	var opErr error
	note := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	m.set("slotstore.setslot_ns", nsPer(half, func(int) {
		for i := range keys {
			note(s.Begin())
			_, err := s.SetSlot(i, fps[i], kbs[i][:], val[:])
			note(err)
			note(s.End())
		}
	}))
	m.set("slotstore.lookup_ns", nsPer(half, func(int) {
		for _, fp := range fps {
			if _, _, ok := s.Lookup(fp); !ok {
				note(fmt.Errorf("slotstore: fingerprint %#x not found", fp))
			}
		}
	}))
	at := 0 // which half the entries sit in
	m.set("slotstore.moveslot_ns", nsPer(half, func(int) {
		from, to := at*half, (1-at)*half
		for i := 0; i < half; i++ {
			note(s.Begin())
			s.MoveSlot(from+i, to+i)
			note(s.End())
		}
		at = 1 - at
	}))
	if opErr != nil {
		return opErr
	}
	if s.Resident() != half {
		return fmt.Errorf("slotstore: %d entries resident after moves, want %d", s.Resident(), half)
	}

	t0 := time.Now()
	if err := s.Checkpoint(); err != nil {
		return err
	}
	m.set("slotstore.checkpoint_ms", float64(time.Since(t0))/1e6)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("slotstore.file_bytes_per_slot", float64(fi.Size())/float64(slots))
	open = false
	if err := s.Close(true); err != nil {
		return err
	}
	t0 = time.Now()
	warm, err := slotstore.Open(path, cfg)
	if err != nil {
		return fmt.Errorf("slotstore: warm open: %w", err)
	}
	m.set("slotstore.open_warm_ms", float64(time.Since(t0))/1e6)
	defer warm.Close(false)
	if warm.Resident() != half {
		return fmt.Errorf("slotstore: warm image holds %d entries, want %d", warm.Resident(), half)
	}
	return nil
}

// replayProto times the frame codec in both directions over memory, on the
// stream's mix of GET and SET frames. A GET's reply carries a value.
func replayProto(rs *replayStream, m metricSet) error {
	var wire, rwire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	var kb [8]byte
	var val [valBytes]byte
	var codecErr error
	note := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	m0 := procSnapshot().mallocs
	req := zkvproto.Request{}
	m.set("zkvproto.req_encode_ns", nsPer(len(rs.ops), func(int) {
		wire.Reset()
		bw.Reset(&wire)
		for _, o := range rs.ops {
			binary.LittleEndian.PutUint64(kb[:], o.key)
			req.Op, req.Key, req.Val = zkvproto.OpGet, kb[:], nil
			if o.set {
				fillValue(val[:], o.key)
				req.Op, req.Val = zkvproto.OpSet, val[:]
			}
			note(req.WriteTo(bw))
		}
		note(bw.Flush())
	}))
	var in zkvproto.Request
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	sets := 0
	m.set("zkvproto.req_decode_ns", nsPer(len(rs.ops), func(int) {
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		sets = 0
		for range rs.ops {
			note(in.ReadFrom(br))
			if in.Op == zkvproto.OpSet {
				sets++
			}
		}
	}))
	resp := zkvproto.Response{}
	m.set("zkvproto.resp_encode_ns", nsPer(len(rs.ops), func(int) {
		rwire.Reset()
		bw.Reset(&rwire)
		for _, o := range rs.ops {
			resp.Status, resp.Val = zkvproto.StatusOK, nil
			if !o.set {
				resp.Val = val[:]
			}
			note(resp.WriteTo(bw))
		}
		note(bw.Flush())
	}))
	var out zkvproto.Response
	valued := 0
	m.set("zkvproto.resp_decode_ns", nsPer(len(rs.ops), func(int) {
		rd.Reset(rwire.Bytes())
		br.Reset(rd)
		valued = 0
		for range rs.ops {
			note(out.ReadFrom(br))
			if len(out.Val) == valBytes {
				valued++
			}
		}
	}))
	m.set("zkvproto.allocs_per_frame", float64(procSnapshot().mallocs-m0)/float64(4*replayReps*len(rs.ops)))
	if codecErr != nil {
		return codecErr
	}
	wantSets := 0
	for _, o := range rs.ops {
		if o.set {
			wantSets++
		}
	}
	if sets != wantSets || valued != len(rs.ops)-wantSets {
		return fmt.Errorf("zkvproto: decoded %d SETs and %d valued replies from %d SETs and %d GETs", sets, valued, wantSets, len(rs.ops)-wantSets)
	}
	return nil
}

// replayRoute times the cluster client's routing decision on a three-node
// ring: key → ring point → primary and replica.
func replayRoute(rs *replayStream, m metricSet) error {
	ring, err := zcluster.NewRing([]string{"node-a", "node-b", "node-c"}, zcluster.DefaultVNodes)
	if err != nil {
		return err
	}
	var kb [8]byte
	m.set("zcluster.route_ns", nsPer(len(rs.ops), func(int) {
		for _, o := range rs.ops {
			binary.LittleEndian.PutUint64(kb[:], o.key)
			p, r := ring.PrimaryReplica(zcluster.PointOf(kb[:]))
			sink += uint64(len(p) + len(r))
		}
	}))
	return nil
}
