// Command crserved is the long-running scheduling service: it serves solve
// requests over HTTP from the full solver registry, memoises evaluations in
// a sharded LRU cache keyed by canonical instance fingerprints, deduplicates
// concurrent identical solves, shards batch requests across a bounded
// worker pool, and runs solves too heavy for any HTTP deadline as
// asynchronous jobs with incumbent progress streaming and an optional
// on-disk result store.
//
// Usage:
//
//	crserved -addr :8080
//	crserved -addr :8080 -solver portfolio -cache-capacity 4096 -max-concurrent 16
//	crserved -addr :8080 -workers 8 -queue 1024 -store /var/lib/crserved/jobs
//
// Example session:
//
//	crgen -kind figure3 -n 12 > inst.json
//	curl -s localhost:8080/v1/solve -d "{\"instance\": $(cat inst.json)}"
//	curl -s localhost:8080/v1/jobs -d "{\"instance\": $(cat inst.json), \"solver\": \"branch-and-bound-parallel\"}"
//	curl -sN localhost:8080/v1/jobs/<id>/events
//	curl -s localhost:8080/metrics | grep crsharing_jobs
//
// See README.md for the full API reference and ARCHITECTURE.md for the
// system design.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get -grace to finish, running jobs are cancelled, and queued jobs are
// checkpointed to -store (or cancelled when no store is configured).
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"crsharing"
	"crsharing/internal/engine"
	"crsharing/internal/service"
)

func main() {
	cfg := service.DefaultNodeConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.StringVar(&cfg.DefaultSolver, "solver", cfg.DefaultSolver, "solver used when a request names none")
	flag.IntVar(&cfg.CacheShards, "cache-shards", cfg.CacheShards, "memo cache shard count")
	flag.IntVar(&cfg.CacheCapacity, "cache-capacity", cfg.CacheCapacity, "memo cache capacity (evaluations, across all shards); 0 disables caching")
	flag.DurationVar(&cfg.DefaultTimeout, "default-timeout", cfg.DefaultTimeout, "deadline for requests that specify none")
	flag.DurationVar(&cfg.MaxTimeout, "max-timeout", cfg.MaxTimeout, "upper clamp on request-supplied deadlines")
	flag.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "maximum instances per batch request")
	flag.IntVar(&cfg.MaxConcurrent, "max-concurrent", cfg.MaxConcurrent, "global cap on concurrently running synchronous solves")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "async job worker pool size")
	flag.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "async job queue depth; 0 disables the job API")
	flag.StringVar(&cfg.StoreDir, "store", cfg.StoreDir, "directory for durable job records; empty keeps jobs in memory only")
	flag.DurationVar(&cfg.JobTimeout, "job-timeout", cfg.JobTimeout, "solve budget for jobs that specify none")
	flag.DurationVar(&cfg.JobMaxTimeout, "job-max-timeout", cfg.JobMaxTimeout, "upper clamp on job-supplied solve budgets")
	flag.IntVar(&cfg.JobRetention, "job-retention", cfg.JobRetention, "job records kept in memory; oldest finished records beyond this are evicted")
	flag.DurationVar(&cfg.Grace, "grace", cfg.Grace, "graceful shutdown budget")
	flag.Func("tenants", "per-tenant admission quotas, name:weight[:maxinflight[:maxqueued[:priority]]],... (e.g. gold:3,free:1:4:32:1)", func(spec string) (err error) {
		if spec != "" {
			cfg.Tenants, err = engine.ParseTenants(spec)
		}
		return err
	})
	flag.DurationVar(&cfg.ShedRetryAfter, "shed-retry-after", cfg.ShedRetryAfter, "Retry-After hint attached to quota sheds (429s)")
	flag.StringVar(&cfg.CacheDir, "cache-dir", cfg.CacheDir, "directory for the persistent warm cache; empty keeps the memo cache in memory only")
	flag.DurationVar(&cfg.CacheFlush, "cache-flush", cfg.CacheFlush, "interval between periodic cache snapshots to -cache-dir")
	flag.DurationVar(&cfg.NegativeTTL, "negative-ttl", cfg.NegativeTTL, "remember deterministic solve failures for this long and replay them without re-solving; 0 disables")
	flag.Func("api-keys", "API key to tenant mapping, key=tenant,... (keys arrive as X-API-Key or Authorization: Bearer)", func(spec string) (err error) {
		if spec != "" {
			cfg.APIKeys, err = service.ParseAPIKeys(spec)
		}
		return err
	})
	flag.Parse()

	node, err := service.OpenNode(cfg)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if cfg.CacheDir != "" && cfg.CacheCapacity > 0 {
		log.Printf("crserved: warm cache: restored %d evaluations from %s (%d skipped, %d corrupt files quarantined)",
			node.CacheLoad.Restored, cfg.CacheDir, node.CacheLoad.Skipped, node.CacheLoad.Quarantined)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("crserved %s listening on %s (solver=%s cache=%d max-concurrent=%d workers=%d queue=%d store=%q)",
		crsharing.Version, cfg.Addr, cfg.DefaultSolver, cfg.CacheCapacity, cfg.MaxConcurrent, cfg.Workers, cfg.QueueDepth, cfg.StoreDir)
	runErr := node.Server.Run(ctx, cfg.Addr, cfg.Grace)
	// Close the node even when the listener tear-down erred: running jobs
	// must be cancelled, queued jobs checkpointed and the warm cache
	// snapshotted either way.
	cctx, cancel := context.WithTimeout(context.Background(), cfg.Grace)
	defer cancel()
	if err := node.Close(cctx); err != nil {
		log.Printf("crserved: shutdown: %v", err)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
	log.Print("crserved: shut down cleanly")
}
