package zkv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"zcache/internal/hash"
	"zcache/internal/zkvproto"
)

// The differential model test: a seeded random Set/Get/Delete/MigrateRange/
// ForgetRange sequence (plus Close → Open warm adoption when persistent)
// against a store and a plain map. Evictions are the store's decision, so
// the evict hook tells the map which key just left; everything else the map
// works out for itself. After every step the two must hold the same keys
// with the same bytes. Every reader of a cell is on the path: the lock-free
// probe (Get), the locked key checks (Set's overwrite test, Delete), the
// scan decode (MigrateRange) and adoptFrom.

// modelStore pairs the store under test with its model.
type modelStore struct {
	t     *testing.T
	cfg   Config
	s     *Store
	pool  [][]byte          // candidate keys, lengths 1–24
	model map[string][]byte // what must be resident, and its bytes
	byFP  map[uint64]string // fingerprint → pool key, for the evict hook
}

func newModelStore(t *testing.T, cfg Config, rng *rand.Rand, poolSize int) *modelStore {
	m := &modelStore{t: t, cfg: cfg, model: make(map[string][]byte), byFP: make(map[uint64]string)}
	for i := 0; len(m.pool) < poolSize; i++ {
		key := make([]byte, 1+i%24)
		rng.Read(key)
		fp := hash.Bytes64(key)
		if _, dup := m.byFP[fp]; dup {
			continue // a repeated short key (or an alias the hook could not tell apart)
		}
		m.byFP[fp] = string(key)
		m.pool = append(m.pool, key)
	}
	m.open()
	return m
}

func (m *modelStore) open() {
	s, err := Open(m.cfg)
	if err != nil {
		m.t.Fatal(err)
	}
	s.SetEvictHook(func(_ int, line uint64) { delete(m.model, m.byFP[line]) })
	m.s = s
}

// inArc reports whether key's ring point lies in (start, end].
func inArc(key []byte, start, end uint64) bool {
	return zkvproto.InArc(zkvproto.RingPoint(hash.Bytes64(key)), start, end)
}

// scan pages through MigrateRange over (start, end] with the given page
// budget, decoding each page the way a resharding target does.
func (m *modelStore) scan(start, end uint64, pageBytes int) map[string][]byte {
	m.t.Helper()
	got := make(map[string][]byte)
	for cursor := uint64(0); ; {
		page, next, count := m.s.MigrateRange(start, end, cursor, pageBytes, zkvproto.BeginMigratePage(nil))
		zkvproto.PatchMigratePage(page, 0, next, uint32(count))
		_, entries, err := zkvproto.DecodeMigratePage(page)
		if err != nil {
			m.t.Fatalf("scan (%#x, %#x] cursor %d: %v", start, end, cursor, err)
		}
		for _, e := range entries {
			if _, dup := got[string(e.Key)]; dup {
				m.t.Fatalf("scan (%#x, %#x]: key %x returned twice", start, end, e.Key)
			}
			got[string(e.Key)] = e.Val
		}
		if next == 0 {
			return got
		}
		cursor = next
	}
}

// agree fails unless a scan of (start, end] returned exactly the model's
// entries in that arc.
func (m *modelStore) agree(step int, what string, start, end uint64, got map[string][]byte) {
	m.t.Helper()
	want := 0
	for k, v := range m.model {
		if !inArc([]byte(k), start, end) {
			continue
		}
		want++
		if g, ok := got[k]; !ok || !bytes.Equal(g, v) {
			m.t.Fatalf("step %d (%s): key %x: store has %x (resident %v), model has %x", step, what, k, g, ok, v)
		}
	}
	if len(got) != want {
		m.t.Fatalf("step %d (%s): scan returned %d entries, model holds %d in the arc", step, what, len(got), want)
	}
}

// agreeGets asks the store for every pool key through the lock-free probe.
func (m *modelStore) agreeGets(step int) {
	m.t.Helper()
	var dst []byte
	for _, key := range m.pool {
		var ok bool
		dst, ok = m.s.Get(key, dst[:0])
		want, resident := m.model[string(key)]
		if ok != resident || !bytes.Equal(dst, want) {
			m.t.Fatalf("step %d: Get(%x) = %x, %v; model has %x, %v", step, key, dst, ok, want, resident)
		}
	}
}

func (m *modelStore) run(rng *rand.Rand, steps int) {
	randArc := func() (uint64, uint64) {
		if rng.Intn(8) == 0 {
			return 0, 0 // the full circle
		}
		start := rng.Uint64()
		return start, start + rng.Uint64()>>uint(1+rng.Intn(6)) // may wrap
	}
	for step := 0; step < steps; step++ {
		key := m.pool[rng.Intn(len(m.pool))]
		var what string
		switch op := rng.Intn(100); {
		case op < 55:
			what = "set"
			val := make([]byte, rng.Intn(301))
			rng.Read(val)
			if err := m.s.Set(key, val); err != nil {
				m.t.Fatal(err)
			}
			m.model[string(key)] = val
		case op < 80:
			what = "get"
			got, ok := m.s.Get(key, nil)
			if want, resident := m.model[string(key)]; ok != resident || !bytes.Equal(got, want) {
				m.t.Fatalf("step %d: Get(%x) = %x, %v; model has %x, %v", step, key, got, ok, want, resident)
			}
		case op < 92:
			what = "delete"
			_, resident := m.model[string(key)]
			if ok := m.s.Delete(key); ok != resident {
				m.t.Fatalf("step %d: Delete(%x) = %v, model resident %v", step, key, ok, resident)
			}
			delete(m.model, string(key))
		case op < 97:
			what = "migrate"
			start, end := randArc()
			m.agree(step, what, start, end, m.scan(start, end, 1+rng.Intn(2048)))
		case op < 99:
			what = "forget"
			start, end := randArc()
			if start == end {
				end = start + 1<<58 // keep most of the store
			}
			want := 0
			for k := range m.model {
				if inArc([]byte(k), start, end) {
					delete(m.model, k)
					want++
				}
			}
			if got := m.s.ForgetRange(start, end); got != want {
				m.t.Fatalf("step %d: ForgetRange dropped %d, model %d", step, got, want)
			}
		default:
			if m.cfg.PersistDir == "" {
				continue
			}
			what = "reopen"
			if err := m.s.Close(); err != nil {
				m.t.Fatal(err)
			}
			m.open()
			if r := m.s.Persist(); r.WarmShards != m.cfg.Shards || r.WarmEntries != len(m.model) {
				m.t.Fatalf("step %d: reopen adopted %d entries in %d warm shards, model holds %d in %d", step, r.WarmEntries, r.WarmShards, len(m.model), m.cfg.Shards)
			}
		}
		if n := m.s.Len(); n != len(m.model) {
			m.t.Fatalf("step %d (%s): store holds %d entries, model %d", step, what, n, len(m.model))
		}
		m.agree(step, what, 0, 0, m.scan(0, 0, 1<<20))
		if step%64 == 0 || step == steps-1 {
			m.agreeGets(step)
		}
	}
	st := m.s.Stats()
	if m.cfg.PersistDir == "" && (st.Relocations == 0 || st.Evictions == 0) {
		m.t.Fatalf("run drove %d relocations and %d evictions; grow the key pool", st.Relocations, st.Evictions)
	}
}

func TestModelDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, persist := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/persist=%v", shards, persist), func(t *testing.T) {
				cfg := Config{Shards: shards, Ways: 4, Rows: 64 / uint64(shards), Levels: 2, Seed: 77}
				if persist {
					skipNoPersist(t)
					cfg.PersistDir = t.TempDir()
				}
				rng := rand.New(rand.NewSource(int64(2010 + shards)))
				// Three keys per slot: most inserts walk, relocate and evict.
				m := newModelStore(t, cfg, rng, 3*4*64)
				defer func() { m.s.Close() }()
				m.run(rng, 1500)
			})
		}
	}
}
