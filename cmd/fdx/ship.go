package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"fdx"
	"fdx/internal/obs"
	"fdx/internal/serve"
)

// Ship mode: `fdx stream -ship URL -session NAME` absorbs the batch grid
// through the same supervised shard workers as local sharded mode, but
// instead of merging locally it ships each shard's snapshot to an fdxd
// session and runs discovery server-side. Shard checkpoints stay on disk
// as the local durability story: a rerun re-absorbs nothing, re-ships the
// same sequence numbers (acknowledged as duplicates), and re-discovers —
// the whole path is idempotent. With -trace, the client spans carry W3C
// traceparent headers and graft fdxd's echoed server spans back in, so
// one trace file covers supervisor, workers, and server under one
// trace id.

// runShippedStream is the -ship analogue of runShardedStream +
// finishStream: absorb locally, merge and discover remotely, print the
// dependencies.
func runShippedStream(ctx context.Context, rel *fdx.Relation, opts fdx.Options, base *fdx.Accumulator, cfg shardedConfig, tel *telemetry) error {
	root := cfg.obs.Start("stream")
	defer root.End()
	root.Attr("shards", cfg.shards)
	root.Attr("ship", cfg.ship)
	root.Attr("session", cfg.session)
	cfg.obs = cfg.obs.Under(root)
	cfg.log = supervisorLogger(cfg.log, root)

	spans, err := absorbShards(ctx, rel, opts, base, cfg)
	if err != nil {
		return err
	}

	client := &serve.ShardClient{
		BaseURL:        cfg.ship,
		Tenant:         cfg.tenant,
		RequestTimeout: 30 * time.Second,
		Metrics:        tel.metrics,
		Obs:            cfg.obs,
	}
	if err := client.CreateSession(ctx, cfg.session, rel.AttrNames(), wireOptions(opts)); err != nil {
		return fmt.Errorf("creating session %q on %s: %w", cfg.session, cfg.ship, err)
	}

	// Sequence numbers are a pure function of the shard layout, so a rerun
	// re-ships the same seqs and the server acks them as duplicates: the
	// main checkpoint's prefix (if any) is seq 1, shard s is seq s+2.
	if base.Batches() > 0 {
		var buf bytes.Buffer
		if err := base.Snapshot(&buf); err != nil {
			return err
		}
		applied, err := client.ShipShard(ctx, cfg.session, 1, buf.Bytes())
		if err != nil {
			return fmt.Errorf("shipping checkpoint prefix: %w", err)
		}
		cfg.log.Info("prefix_shipped", "seq", 1, "batches", base.Batches(), "applied", applied)
	}
	for s, span := range spans {
		if span.Lo == span.Hi {
			continue
		}
		snap, err := os.ReadFile(cfg.shardPath(s))
		if err != nil {
			return fmt.Errorf("reading shard %d snapshot: %w: %w", s, err, fdx.ErrBadInput)
		}
		applied, err := client.ShipShard(ctx, cfg.session, s+2, snap)
		if err != nil {
			return fmt.Errorf("shipping shard %d: %w", s, err)
		}
		cfg.shardHooks(s).Count(obs.MShardShipped, 1)
		cfg.log.Info("shard_shipped", "shard", s, "seq", s+2, "bytes", len(snap), "applied", applied)
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "fdx: shard %d shipped to %s (seq %d, applied %v)\n", s, cfg.ship, s+2, applied)
		}
	}

	resp, err := client.Discover(ctx, cfg.session)
	if err != nil {
		return fmt.Errorf("remote discover: %w", err)
	}
	fmt.Printf("%s: %d rows in %d batches, %d attributes, %d FDs (remote %s session %s)\n\n",
		rel.Name, resp.Rows, resp.Batches, len(resp.Attributes), len(resp.FDs), cfg.ship, cfg.session)
	for _, fd := range resp.FDs {
		fmt.Printf("%s -> %s   (score %.3f)\n", strings.Join(fd.LHS, ","), fd.RHS, fd.Score)
	}
	return tel.finish()
}

// wireOptions maps the stream's discovery options onto the session wire
// options, so the server's remote discovery matches a local run exactly.
func wireOptions(opts fdx.Options) serve.SessionOptions {
	return serve.SessionOptions{
		Lambda:             opts.Lambda,
		Threshold:          opts.Threshold,
		RelFraction:        opts.RelFraction,
		Ordering:           opts.Ordering,
		MaxRows:            opts.MaxRows,
		NumericTolerance:   opts.NumericTolerance,
		TextSimilarity:     opts.TextSimilarity,
		Workers:            opts.Workers,
		Seed:               opts.Seed,
		RequireConvergence: opts.RequireConvergence,
	}
}
