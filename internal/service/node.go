package service

import (
	"context"
	"fmt"
	"time"

	"crsharing"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// NodeConfig configures one serving node: one field per cmd/crserved flag.
// DefaultNodeConfig returns the values crserved ships with; every in-process
// server (crload without -addr, the harness tests) starts from it too, so a
// load run measures the configuration that is deployed.
type NodeConfig struct {
	// Addr is the listen address Server.Run serves the node on.
	Addr string
	// DefaultSolver is used when a request names none.
	DefaultSolver string
	// CacheShards and CacheCapacity size the memo cache (evaluations across
	// all shards); capacity 0 disables caching.
	CacheShards, CacheCapacity int
	// DefaultTimeout bounds synchronous solves that ask for none;
	// MaxTimeout clamps the ones that do.
	DefaultTimeout, MaxTimeout time.Duration
	// MaxBatch caps the instances of one batch request.
	MaxBatch int
	// MaxConcurrent is the engine's admission budget, shared by sync, batch
	// and job solves.
	MaxConcurrent int
	// Workers and QueueDepth size the job subsystem; queue depth 0 disables
	// the job API (/v1/jobs).
	Workers, QueueDepth int
	// StoreDir holds durable job records; empty keeps jobs in memory only.
	StoreDir string
	// JobTimeout is the solve budget of jobs that ask for none; JobMaxTimeout
	// clamps the ones that do.
	JobTimeout, JobMaxTimeout time.Duration
	// JobRetention is the number of job records kept in memory.
	JobRetention int
	// Grace is the graceful shutdown budget crserved gives Server.Run and
	// Close.
	Grace time.Duration
	// Tenants are per-tenant admission quotas; tenants not listed run under
	// the engine's defaults.
	Tenants map[string]engine.TenantConfig
	// ShedRetryAfter is the Retry-After hint attached to quota sheds.
	ShedRetryAfter time.Duration
	// CacheDir persists the memo cache: loaded on open, flushed every
	// CacheFlush and on Close. Empty keeps the cache in memory only.
	CacheDir   string
	CacheFlush time.Duration
	// NegativeTTL, when positive, remembers deterministic solve failures for
	// that long and replays them without re-solving.
	NegativeTTL time.Duration
	// APIKeys maps API keys to tenant names.
	APIKeys map[string]string
}

// DefaultNodeConfig returns the configuration crserved ships with.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Addr:           ":8080",
		DefaultSolver:  "portfolio",
		CacheShards:    16,
		CacheCapacity:  4096,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		MaxBatch:       1024,
		MaxConcurrent:  16,
		Workers:        4,
		QueueDepth:     256,
		JobTimeout:     10 * time.Minute,
		JobMaxTimeout:  time.Hour,
		JobRetention:   4096,
		Grace:          10 * time.Second,
		ShedRetryAfter: time.Second,
		CacheFlush:     30 * time.Second,
	}
}

// Node is one serving node: the memo cache and its persister, the shared
// engine, the job manager and the HTTP layer, built by OpenNode. Serve it
// with Server.Run or behind any listener via Server.Handler, then Close it.
type Node struct {
	// Server is the HTTP layer.
	Server *Server
	// Engine is the solve pipeline every surface of the node shares.
	Engine *engine.Engine
	// Jobs is the job subsystem; nil when QueueDepth is 0.
	Jobs *jobs.Manager
	// CacheLoad reports what the cache persister restored on open (zero
	// without a CacheDir).
	CacheLoad solver.LoadReport

	persister *solver.Persister
}

// OpenNode builds a node from cfg. If a step fails, the steps already done
// are undone before the error is returned.
func OpenNode(cfg NodeConfig) (*Node, error) {
	var cache *solver.Cache
	if cfg.CacheCapacity > 0 {
		cache = solver.NewCache(cfg.CacheShards, cfg.CacheCapacity)
		if cfg.NegativeTTL > 0 {
			cache.SetNegativeTTL(cfg.NegativeTTL)
		}
	}
	eng, err := engine.New(engine.Config{
		Registry:       solver.Default(),
		Cache:          cache,
		DefaultSolver:  cfg.DefaultSolver,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		MaxConcurrent:  cfg.MaxConcurrent,
		Tenants:        cfg.Tenants,
		ShedRetryAfter: cfg.ShedRetryAfter,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{Engine: eng}
	if cache != nil && cfg.CacheDir != "" {
		p, err := solver.NewPersister(cache, cfg.CacheDir, cfg.CacheFlush)
		if err != nil {
			return nil, err
		}
		if n.CacheLoad, err = p.Load(); err != nil {
			return nil, err
		}
		p.Start()
		n.persister = p
	}
	// fail undoes what is built so far.
	fail := func(err error) (*Node, error) {
		if cerr := n.Close(context.Background()); cerr != nil {
			return nil, fmt.Errorf("%w (undoing: %v)", err, cerr)
		}
		return nil, err
	}
	if cfg.QueueDepth > 0 {
		var store jobs.Store
		if cfg.StoreDir != "" {
			fs, err := jobs.NewFileStore(cfg.StoreDir)
			if err != nil {
				return fail(err)
			}
			store = fs
		}
		if n.Jobs, err = jobs.New(jobs.Config{
			Engine:         eng,
			DefaultSolver:  cfg.DefaultSolver,
			Workers:        cfg.Workers,
			QueueDepth:     cfg.QueueDepth,
			DefaultTimeout: cfg.JobTimeout,
			MaxTimeout:     cfg.JobMaxTimeout,
			MaxRecords:     cfg.JobRetention,
			Store:          store,
		}); err != nil {
			return fail(err)
		}
	}
	if n.Server, err = New(Config{
		Engine:   eng,
		MaxBatch: cfg.MaxBatch,
		Jobs:     n.Jobs,
		APIKeys:  cfg.APIKeys,
		Version:  crsharing.Version,
	}); err != nil {
		return fail(err)
	}
	return n, nil
}

// Close shuts the node down once its listener has drained: the job manager
// first (running jobs are cancelled, queued ones checkpointed to the store),
// then the final cache snapshot, so everything memoised is there for the
// next node on the same CacheDir. ctx bounds the wait for the job workers.
// It returns the first error.
func (n *Node) Close(ctx context.Context) error {
	var err error
	if n.Jobs != nil {
		err = n.Jobs.Close(ctx)
	}
	if n.persister != nil {
		if perr := n.persister.Close(); err == nil {
			err = perr
		}
	}
	return err
}
