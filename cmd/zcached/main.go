// Command zcached serves a zkv store — the live, sharded zcache-backed
// key-value cache — over the zkvproto binary protocol.
//
//	zcached -addr 127.0.0.1:7171 -shards 8 -ways 4 -rows 4096 -levels 2
//
// The server answers pipelined GET/SET/DEL/STATS/PING frames in order, one
// goroutine per connection from a bounded pool. SIGINT/SIGTERM trigger a
// graceful shutdown: the listener closes, live connections drain buffered
// and in-flight requests for up to -drain, and the process exits 0.
//
// With -metrics ADDR, a plain-text metrics endpoint (the same counter text
// the STATS op returns) is served at http://ADDR/metrics, and a readiness
// probe at http://ADDR/ready answers 200 "ok" while the server accepts new
// connections and 503 "draining" once shutdown begins — the hook a load
// balancer needs to stop routing before the drain window closes.
//
// The serving path defends itself (see DESIGN.md §12): -idle-timeout
// closes connections that start no request, -read-timeout closes
// slow-loris senders mid-frame, -write-timeout closes stalled readers,
// and -max-pipeline sheds requests past the per-connection pipeline depth
// with a busy reply instead of buffering without bound.
//
// With -persist DIR, every shard keeps its slot cells in an mmap-backed
// slotstore file under DIR. A graceful shutdown checkpoints and clean-marks
// the files, so the next boot warm-restores the cache; any abrupt death
// (kill -9, power loss) leaves them marked dirty, and the next boot logs
// the rebuild signal and starts those shards cold — never serving a torn
// image. -persist-sync bounds page-cache loss by msyncing every mutation.
//
// Cluster deployments need no server-side configuration: membership lives
// in the clients' consistent-hash ring (see internal/zcluster and
// DESIGN.md §14), and the MIGRATE/FORGET verbs that power live resharding
// are answered by every zcached. The client picks each MIGRATE page's size;
// the server caps it at 256KiB, which bounds how long a page can hold a
// shard lock.
//
// Exit codes: 0 on clean shutdown (including signal-triggered), 1 on
// configuration or runtime failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zcache/internal/repl"
	"zcache/internal/zkv"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "zcached: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole server lifecycle; main exits 0 exactly when it returns
// nil. Tests drive it with a cancellable ctx in place of a signal.
func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("zcached", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7171", "TCP listen address")
		shards   = fs.Int("shards", 0, "shard count, power of two (0 = size off GOMAXPROCS)")
		ways     = fs.Int("ways", 4, "zcache ways per shard")
		rows     = fs.Uint64("rows", 4096, "rows per way per shard, power of two")
		levels   = fs.Int("levels", 2, "replacement walk depth")
		policy   = fs.String("policy", "lru", "replacement policy: lru (the paper's bucketed LRU), lru-full, random, lfu, srrip or drrip")
		seed     = fs.Uint64("seed", 1, "hash seed (identical seeds build identical stores)")
		maxConns = fs.Int("max-conns", 0, "max concurrent connections (0 = 4*GOMAXPROCS)")
		maxVal   = fs.Int("max-val", 1<<20, "max value size in bytes")
		drain    = fs.Duration("drain", 5*time.Second, "shutdown drain window for in-flight requests")
		idleTO   = fs.Duration("idle-timeout", 0, "close connections idle this long between requests (0 = 5m, negative = off)")
		readTO   = fs.Duration("read-timeout", 0, "close connections that stall mid-frame this long (0 = 10s, negative = off)")
		writeTO  = fs.Duration("write-timeout", 0, "close connections whose reads stall a response write this long (0 = 10s, negative = off)")
		maxPipe  = fs.Int("max-pipeline", 0, "shed requests past this per-connection pipeline depth with a busy reply (0 = 1024, negative = off)")
		metrics  = fs.String("metrics", "", "optional HTTP address serving /metrics (empty = off)")
		persist  = fs.String("persist", "", "directory for mmap-backed persistent shards (empty = off); warm-restores valid shard images on boot")
		psync    = fs.Bool("persist-sync", false, "msync every persisted mutation (crash-bounded loss, much slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lg := log.New(logw, "zcached: ", log.LstdFlags)

	pol, err := repl.ParseKind(*policy)
	if err != nil {
		return err
	}
	store, err := zkv.Open(zkv.Config{
		Shards: *shards, Ways: *ways, Rows: *rows, Levels: *levels,
		Policy: pol, Seed: *seed, MaxValBytes: *maxVal,
		PersistDir: *persist, PersistSync: *psync,
	})
	if err != nil {
		return err
	}
	cfg := store.Config()
	lg.Printf("store: %d shards x %d ways x %d rows (capacity %d entries), policy %s, levels %d",
		cfg.Shards, cfg.Ways, cfg.Rows, store.Capacity(), cfg.Policy, cfg.Levels)
	if rep := store.Persist(); rep.Enabled {
		lg.Printf("persist: %s — %d shards warm (%d entries restored), %d cold (%d rebuild signals)",
			rep.Dir, rep.WarmShards, rep.WarmEntries, rep.ColdShards, rep.Rebuilds)
	}

	srv := zkv.NewServer(store, zkv.ServerConfig{
		Addr: *addr, MaxConns: *maxConns, DrainTimeout: *drain,
		IdleTimeout: *idleTO, ReadTimeout: *readTO, WriteTimeout: *writeTO,
		MaxPipeline: *maxPipe,
	})

	// Signals share the shutdown path with ctx cancellation so tests can
	// exercise the drain without sending a real SIGINT.
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var msrv *http.Server
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(srv.MetricsText())
		})
		mux.HandleFunc("/ready", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			if srv.Ready() {
				fmt.Fprintln(w, "ok")
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		})
		msrv = &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				lg.Printf("metrics endpoint: %v", err)
			}
		}()
		lg.Printf("metrics on http://%s/metrics", *metrics)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	lg.Printf("listening on %s", *addr)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	lg.Printf("shutting down: draining for up to %s", *drain)
	sdCtx, cancel := context.WithTimeout(context.Background(), *drain+2*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && err != zkv.ErrServerClosed {
		return err
	}
	if msrv != nil {
		msrv.Shutdown(sdCtx)
	}
	// The drain is complete: no request can touch the store anymore, so
	// checkpoint and clean-mark the persistent shards. Only this path makes
	// the next boot warm; any abrupt death leaves the dirty rebuild signal.
	if err := store.Close(); err != nil {
		return fmt.Errorf("persist close: %w", err)
	}
	if rep := store.Persist(); rep.Enabled {
		lg.Printf("persist: shards marked clean")
	}
	lg.Printf("drained; bye")
	return nil
}
