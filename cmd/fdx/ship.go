package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"fdx"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
	"fdx/internal/serve"
)

// Ship mode: `fdx stream -ship URL -session NAME` absorbs the batch grid
// through the same supervised workers and the same folds as a local run,
// but every saved state is shipped to an fdxd session before it is folded
// into the main checkpoint, and discovery runs server-side. The main
// checkpoint is shipped first, so it is always contained in the session
// and no scratch file outlives a run. The session dedups by batch coverage
// alone: a state it already holds is acknowledged with applied=false, and
// one that partially overlaps it is refused as shard_mismatch (exit 2).
// Sequence numbers only label the deliveries. With -trace, the client
// spans carry W3C traceparent headers and graft fdxd's echoed server
// spans back in, so one trace file covers supervisor, workers, and server
// under one trace id.

// runShippedStream is the -ship analogue of runShardedStream +
// finishStream: absorb locally, merge and discover remotely, print the
// dependencies. A cancelled run's error always matches fdx.ErrCancelled,
// so a drain that lands in an HTTP call still exits 0.
func runShippedStream(ctx context.Context, rel *fdx.Relation, opts fdx.Options, main *fdx.Accumulator, cfg shardedConfig, tel *telemetry) (err error) {
	root, cfg := startStream(cfg)
	defer root.End()
	defer func() {
		if err != nil && ctx.Err() != nil && !errors.Is(err, fdx.ErrCancelled) {
			err = fdxerr.Cancelled(err)
		}
	}()
	root.Attr("ship", cfg.ship)
	root.Attr("session", cfg.session)

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
	seq := 0
	ship := func(ctx context.Context, snap []byte) error {
		seq++
		applied, err := client.ShipShard(ctx, cfg.session, seq, snap)
		if err != nil {
			return fmt.Errorf("shipping state %d to session %q: %w", seq, cfg.session, err)
		}
		cfg.obs.Count(obs.MShardShipped, 1)
		cfg.log.Info("shard_shipped", "seq", seq, "bytes", len(snap), "applied", applied)
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "fdx: state shipped to %s (seq %d, applied %v)\n", cfg.ship, seq, applied)
		}
		return nil
	}
	if main.Batches() > 0 {
		var buf bytes.Buffer
		if err := main.Snapshot(&buf); err != nil {
			return err
		}
		if err := ship(ctx, buf.Bytes()); err != nil {
			return err
		}
	}
	if err := streamShards(ctx, rel, opts, main, cfg, ship); err != nil {
		return err
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
		Seed:               opts.Seed,
		RequireConvergence: opts.RequireConvergence,
	}
}
