package zcluster

import (
	"encoding/binary"
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/workloads"
	"zcache/internal/zkv"
)

// NodeEquiv is one node's slice of the clustered equivalence replay.
type NodeEquiv struct {
	Node     string
	Accesses int
	Hits     uint64
	Misses   uint64
	Victims  int
	Match    bool
	Detail   string
}

// EquivReport is ReplayEquiv's outcome: the per-shard paper claim, checked
// per cluster node. Match holds only when every node's zkv store made
// bit-identical eviction decisions to its simulator-built reference.
type EquivReport struct {
	Workload string
	Nodes    int
	Accesses int
	PerNode  []NodeEquiv
	Match    bool
	Detail   string
}

// ReplayEquiv is the repository's one equivalence replay. It routes a
// workload's reference stream through the consistent-hash ring onto nodes
// in-process one-shard stores, each paired with the simulator's L2-bank
// reference (zkv.NewRefCache) over the same per-node seed, and compares
// eviction decisions per node. The ring partitions the key space exactly as
// sharding partitions it inside one store, so the per-shard claim is checked
// one node at a time; nodes = 1 is the single-store case.
//
// The mapping is the one zcached serves: each trace line address becomes an
// 8-byte key; reads are Get (filling on miss), writes are Set. The
// reference cache sees the key's fingerprint as its line address, so both
// engines hash, walk, relocate, and evict over the same 64-bit space.
// Footprints are anchored to the stores' total capacity, so the workload
// presets stress eviction the way they stress a simulated L2.
//
// Routing is R=1 and in-process (no stamps, no network): what is under
// test here is placement plus the engine, not the transport.
func ReplayEquiv(w workloads.Workload, cfg zkv.Config, nodes, vnodes, accesses int) (EquivReport, error) {
	rep := EquivReport{Workload: w.Name, Nodes: nodes, Accesses: accesses}
	if nodes < 1 {
		return rep, fmt.Errorf("zcluster: need at least one node")
	}

	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return rep, err
	}
	idxOf := make(map[string]int, nodes)
	for i, n := range names {
		idxOf[n] = i
	}

	type nodeState struct {
		store      *zkv.Store
		ref        *cache.Cache
		accesses   int
		refVictims []uint64
		kvVictims  []uint64
	}
	states := make([]*nodeState, nodes)
	for i := range states {
		ncfg := cfg
		ncfg.Shards = 1
		ncfg.Seed = hash.Mix64(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		store, err := zkv.Open(ncfg)
		if err != nil {
			return rep, fmt.Errorf("zcluster: node %d store: %w", i, err)
		}
		defer store.Close()
		ref, err := zkv.NewRefCache(ncfg)
		if err != nil {
			return rep, fmt.Errorf("zcluster: node %d reference: %w", i, err)
		}
		st := &nodeState{store: store, ref: ref}
		ref.OnEviction = func(addr uint64, dirty bool) { st.refVictims = append(st.refVictims, addr) }
		store.SetEvictHook(func(shard int, line uint64) { st.kvVictims = append(st.kvVictims, line) })
		states[i] = st
	}

	// One trace stream, footprint anchored to the cluster's total
	// capacity; the ring fans it out.
	const lineBytes = 64
	totalCap := uint64(0)
	for _, st := range states {
		totalCap += uint64(st.store.Capacity())
	}
	gens, err := w.Generators(1, lineBytes, totalCap*lineBytes, cfg.Seed)
	if err != nil {
		return rep, err
	}
	gen := gens[0]

	var (
		key [8]byte
		val [16]byte
		dst []byte
	)
	done := 0
	for done < accesses {
		a, ok := gen.Next()
		if !ok {
			break
		}
		line := a.Addr / lineBytes
		binary.BigEndian.PutUint64(key[:], line)
		fp := hash.Bytes64(key[:])
		st := states[idxOf[ring.Primary(PointOf(key[:]))]]
		st.accesses++
		st.ref.Access(fp, a.Write)
		if a.Write {
			binary.BigEndian.PutUint64(val[:], line)
			if err := st.store.Set(key[:], val[:]); err != nil {
				return rep, err
			}
		} else if dst, ok = st.store.Get(key[:], dst[:0]); !ok {
			binary.BigEndian.PutUint64(val[:], line)
			if err := st.store.Set(key[:], val[:]); err != nil {
				return rep, err
			}
		}
		done++
	}
	rep.Accesses = done

	rep.Match = true
	for i, st := range states {
		ne := NodeEquiv{Node: names[i], Accesses: st.accesses, Match: true}
		refStats := st.ref.Stats()
		kv := st.store.Stats()
		ne.Hits, ne.Misses = refStats.Hits, refStats.Misses
		ne.Victims = len(st.refVictims)
		kvHits := kv.GetHits + kv.Overwrites
		kvMisses := kv.Inserts
		switch {
		case kv.Collisions != 0:
			// An 8-byte-key replay cannot alias fingerprints short of a
			// Bytes64 collision; treat one as a divergence, not luck.
			ne.Match, ne.Detail = false, fmt.Sprintf("%d fingerprint collisions", kv.Collisions)
		case kvHits != refStats.Hits || kvMisses != refStats.Misses:
			ne.Match = false
			ne.Detail = fmt.Sprintf("hit/miss mismatch: ref %d/%d, zkv %d/%d",
				refStats.Hits, refStats.Misses, kvHits, kvMisses)
		case len(st.refVictims) != len(st.kvVictims):
			ne.Match = false
			ne.Detail = fmt.Sprintf("victim count mismatch: ref %d, zkv %d",
				len(st.refVictims), len(st.kvVictims))
		default:
			for vi := range st.refVictims {
				if st.refVictims[vi] != st.kvVictims[vi] {
					ne.Match = false
					ne.Detail = fmt.Sprintf("victim %d diverges: ref %#x, zkv %#x",
						vi, st.refVictims[vi], st.kvVictims[vi])
					break
				}
			}
		}
		if !ne.Match && rep.Match {
			rep.Match = false
			rep.Detail = fmt.Sprintf("%s: %s", ne.Node, ne.Detail)
		}
		rep.PerNode = append(rep.PerNode, ne)
	}
	return rep, nil
}

// ReplayEquivByName resolves a workload preset by name and replays it.
func ReplayEquivByName(name string, cfg zkv.Config, nodes, vnodes, accesses int) (EquivReport, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return EquivReport{}, fmt.Errorf("zcluster: unknown workload %q", name)
	}
	return ReplayEquiv(w, cfg, nodes, vnodes, accesses)
}
