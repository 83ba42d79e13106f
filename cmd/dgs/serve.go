package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dgs/internal/agg"
	"dgs/internal/checkpoint"
	"dgs/internal/ps"
	"dgs/internal/replica"
	"dgs/internal/telemetry"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// serverCmd runs a standalone parameter server over TCP, built from the
// run's description as trainer.Run builds its own: workers connect with the
// same -model, -dataset, -method and -workers, and the method decides what
// the server sends down.
func serverCmd(fs *flag.FlagSet) func() {
	var sv serving
	var adm admission
	addr := fs.String("addr", "127.0.0.1:7000", "listen address")
	timeout := fs.Duration("timeout", 30*time.Second, "per-exchange deadline (0 disables)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for crash-recovery checkpoints (empty disables; restores the latest on start)")
	ckptEvery := fs.Duration("checkpoint-interval", 30*time.Second, "asynchronous checkpoint interval")
	ckptKeep := fs.Int("checkpoint-keep", 3, "checkpoints retained on disk")
	manifestPath := fs.String("manifest", "", "periodically write the JSON run manifest to this file")
	manifestEvery := fs.Duration("manifest-every", 10*time.Second, "manifest write interval")
	sv.register(fs)
	adm.register(fs)
	return func() {
		cfg := sv.config()
		model := cfg.BuildModel(tensor.NewRNG(1))
		// Restart recovery: when a checkpoint directory is configured and
		// holds a readable snapshot, the server resumes from it instead of
		// θ0 — the session layer's fresh incarnation id then makes every
		// reconnecting worker detect the restart and resync.
		st, path := latestCheckpoint(*ckptDir)
		server, err := trainer.NewServer(&cfg, model.LayerSizes(), st)
		fatalIf(err, "restore "+path)
		// The exactly-once session layer makes worker retries safe (replayed
		// pushes answer from cache instead of re-applying) and resyncs
		// crashed-and-rejoined workers with a dense snapshot. The admission
		// gate sits outside it so shed pushes never consume session state.
		ep, err := trainer.Serve(server, trainer.ServeOptions{
			Addr: *addr, Timeout: *timeout,
			MaxInflight: adm.maxInflight, RetryHint: adm.retryHint, DrainHint: adm.drainTimeout,
		})
		fatalIf(err, "serve")
		defer ep.TCP.Close()
		fmt.Printf("dgs-server: listening on %s (method=%s, %d params, %d workers, secondary=%v)\n",
			ep.TCP.Addr(), cfg.Method, model.NumParams(), cfg.Workers, cfg.Secondary)
		if st != nil {
			fmt.Printf("dgs-server: restored state from %s (t=%d)\n", path, server.Timestamp())
		}

		// Asynchronous checkpointing runs on its own goroutine, which also
		// writes the shutdown snapshot once the drain has finished.
		stopCkpt, ckptDone := make(chan struct{}), make(chan struct{})
		if *ckptDir == "" {
			close(ckptDone)
		} else {
			go checkpoints(server, &checkpoint.Writer{Dir: *ckptDir, Keep: *ckptKeep}, server.NewCaptureState(), *ckptEvery, stopCkpt, ckptDone)
		}

		manifest := telemetry.NewManifest(nil)
		for k, v := range map[string]any{
			"role": "server", "method": cfg.Method.String(), "workers": cfg.Workers, "params": model.NumParams(),
			"secondary": cfg.Secondary, "secondary_ratio": cfg.SecondaryRatio,
			"addr": ep.TCP.Addr(),
		} {
			manifest.Set(k, v)
		}
		defer startMetrics(sv.metrics, "dgs-server", manifest)()
		if *manifestPath != "" {
			stop := manifest.StartPeriodic(*manifestPath, *manifestEvery)
			defer stop()
		}

		sv.run(func() {
			st := server.Stats()
			mean := float64(st.StalenessSum) / float64(max(st.Pushes, 1))
			ss := ep.Sessions.Stats()
			fmt.Printf("dgs-server: pushes=%d staleness(mean=%.2f max=%d) traffic(up=%dKB down=%dKB) sessions(joins=%d replays=%d stale=%d resyncs=%d)\n",
				st.Pushes, mean, st.MaxStaleness, ep.Traffic.Up()/1000, ep.Traffic.Down()/1000,
				ss.Hellos, ss.Replays, ss.StaleRejected, st.Resyncs)
		}, func(s os.Signal) {
			// Graceful drain: stop admitting pushes (workers get RetryAfter
			// and back off), let in-flight ones finish, then let the
			// checkpointer take the final snapshot and exit. Eq. 5 holds in
			// the snapshot because nothing is mid-apply once Drain returns.
			adm.drain(s, ep.Gate.Drain)
			close(stopCkpt)
			<-ckptDone
			fmt.Println("dgs-server: shutting down")
		})
	}
}

// latestCheckpoint is the newest readable checkpoint in dir and its path,
// or nil when dir is empty or holds none.
func latestCheckpoint(dir string) (*checkpoint.State, string) {
	if dir == "" {
		return nil, ""
	}
	st, path, err := checkpoint.LoadLatest(dir)
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, ""
	}
	fatalIf(err, "load checkpoint")
	return st, path
}

// checkpoints captures a consistent cut of server every interval and
// writes it atomically, entirely off the push path; a capture copies only
// the blocks dirtied since the previous one. When stop closes it writes the
// final checkpoint and closes done.
func checkpoints(server *ps.Server, w *checkpoint.Writer, st *checkpoint.State, every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	lastT, wrote := uint64(0), false
	for final := false; !final; {
		what := "checkpoint"
		select {
		case <-tick.C:
		case <-stop:
			final, what = true, "final"
		}
		stats, err := server.Capture(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgs-server: %s capture: %v\n", what, err)
			continue
		}
		// An idle server would otherwise rewrite an identical file every
		// interval; skip until something changes.
		t := server.Timestamp()
		if !final && wrote && stats.BlocksCopied == 0 && t == lastT {
			continue
		}
		path, err := w.Write(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgs-server: %s write: %v\n", what, err)
			continue
		}
		lastT, wrote = t, true
		if final {
			fmt.Printf("dgs-server: final checkpoint %s (t=%d)\n", path, t)
		} else {
			fmt.Printf("dgs-server: checkpoint t=%d (%d blocks copied, %d skipped, %d bytes)\n",
				t, stats.BlocksCopied, stats.BlocksSkipped, stats.Bytes)
		}
	}
}

// aggCmd runs one aggregator of the hierarchical aggregation tier
// (DESIGN.md §11): it terminates worker sessions, merges their sparse
// pushes into one combined push per window, forwards it to the upstream
// `dgs server` over a single pipelined connection, and fans the downward
// diffs back out from a local mirror. Workers point their -addr at this
// process instead of the server; -model and -dataset must match both sides.
func aggCmd(fs *flag.FlagSet) func() {
	var svc service
	var adm admission
	var dial trainer.DialOptions
	addr := fs.String("addr", "127.0.0.1:7100", "listen address for downstream workers")
	upWorker := fs.Int("upstream-worker", 0, "this aggregator's worker id at the upstream server")
	maxWork := fs.Int("max-workers", 64, "downstream worker slots (distinct worker ids)")
	window := fs.Duration("window-wait", 500*time.Microsecond, "max wait before an unfilled window is forwarded")
	windowSize := fs.Int("window", 16, "worker pushes merged into one upstream push")
	depth := fs.Int("depth", 2, "windows in flight on the upstream connection")
	svc.register(fs, "")
	dialFlags(fs, &dial, "upstream")
	adm.register(fs)
	return func() {
		defer startMetrics(svc.metrics, "dgs-agg", nil)()
		a, err := agg.New(agg.Config{
			LayerSizes:     svc.build().LayerSizes(),
			MaxWorkers:     *maxWork,
			Window:         *windowSize,
			WindowWait:     *window,
			Depth:          *depth,
			UpstreamWorker: *upWorker,
			Dial: func() (transport.MuxLink, error) {
				c, err := transport.DialMux(dial.Addr)
				if err != nil {
					return nil, err
				}
				c.ExchangeTimeout = dial.Timeout
				return c, nil
			},
			MaxRetries: dial.Retries, Backoff: dial.Backoff, MaxBackoff: dial.MaxBackoff,
			MaxInflight: adm.maxInflight, RetryHint: adm.retryHint, DrainHint: adm.drainTimeout,
		})
		fatalIf(err, "config")

		srv, err := transport.ListenTCP(*addr, a.Handler())
		fatalIf(err, "listen")
		fmt.Printf("dgs-agg: %s → %s (upstream worker %d), window %d/%s, depth %d\n",
			srv.Addr(), dial.Addr, *upWorker, *windowSize, *window, *depth)

		svc.run(func() {
			st := a.Stats()
			ss := a.Sessions()
			dedup := 1.0
			if st.MergedNNZ > 0 {
				dedup = float64(st.PartNNZ) / float64(st.MergedNNZ)
			}
			fmt.Printf("dgs-agg: windows=%d parts=%d dedup=%.2fx frames(shared=%d encoded=%d) resets=%d sessions(joins=%d replays=%d)\n",
				st.Windows, st.Parts, dedup, st.SharedFrames, st.EncodedFrames,
				st.UpstreamResets, ss.Hellos, ss.Replays)
		}, func(s os.Signal) {
			// Graceful drain: stop admitting, finish the in-flight windows
			// upstream, then close. Workers get RetryAfter frames and back
			// off; once Close returns the upstream has absorbed everything
			// this tier acknowledged.
			adm.drain(s, a.Drain)
			srv.Close()
			a.Close()
			fmt.Println("dgs-agg: shutting down")
		})
	}
}

// replicaCmd runs one read replica of the read-path scale-out tier
// (DESIGN.md §12): it subscribes to a `dgs server` (or `dgs agg`) endpoint
// as a read-session pseudo-worker, feeds a local model mirror from the
// downward diff stream, and serves the mirrored model over HTTP at
// arbitrary fan-out — evaluation, scraping and model export traffic move
// here instead of contending with trainers on the parameter server's read
// path. Any number of replicas may attach; each needs its own worker id
// (an ordinary worker slot upstream, disjoint from the trainers').
//
//	dgs server  -addr 127.0.0.1:7000 -workers 4
//	dgs worker  -addr 127.0.0.1:7000 -id 0 -workers 2 ...
//	dgs worker  -addr 127.0.0.1:7000 -id 1 -workers 2 ...
//	dgs replica -upstream 127.0.0.1:7000 -worker 2 -http 127.0.0.1:7080
//	curl -s 127.0.0.1:7080/model > model.bin   # "DGSM" dump, see internal/replica
//	curl -s 127.0.0.1:7080/replicaz            # subscription state as JSON
func replicaCmd(fs *flag.FlagSet) func() {
	var svc service
	var dial trainer.DialOptions
	worker := fs.Int("worker", 0, "this replica's worker id at the upstream server")
	httpAddr := fs.String("http", "127.0.0.1:7080", "HTTP listen address for /model, /replicaz, /healthz")
	codec := fs.String("codec", "raw", "wire codec the steady-state polls are framed in, and the server answers in (raw|sbc)")
	poll := fs.Duration("poll", 50*time.Millisecond, "subscription poll interval (read staleness bound)")
	syncEvery := fs.Int("sync-every", 8, "every Nth poll is a raw exact probe (1 pins every poll raw)")
	svc.register(fs, "")
	dialFlags(fs, &dial, "upstream")
	return func() {
		defer startMetrics(svc.metrics, "dgs-replica", nil)()
		r, err := replica.New(replica.Config{
			LayerSizes:   svc.build().LayerSizes(),
			Worker:       *worker,
			Dial:         replica.DialStack(dial.Addr, dial.Timeout, dial.Retries, dial.Backoff, dial.MaxBackoff),
			Codec:        *codec,
			PollInterval: *poll,
			SyncEvery:    *syncEvery,
		})
		fatalIf(err, "config")

		ln, err := net.Listen("tcp", *httpAddr)
		fatalIf(err, "http listen")
		hsrv := &http.Server{Handler: r.Handler()}
		go hsrv.Serve(ln)
		fmt.Printf("dgs-replica: %s ← %s (worker %d, codec %s, poll %s)\n",
			ln.Addr(), dial.Addr, *worker, *codec, *poll)

		svc.run(func() {
			st := r.Stats()
			fmt.Printf("dgs-replica: gen=%d stamp=%d polls=%d (empty=%d) coords=%d resyncs=%d reads=%d stale=%s\n",
				st.Generation, st.Stamp, st.Polls, st.EmptyPolls, st.AppliedCoords,
				st.Resyncs, st.Reads, st.Staleness.Round(time.Millisecond))
			if err := r.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "dgs-replica: subscription parked: %v\n", err)
			}
		}, func(s os.Signal) {
			fmt.Printf("dgs-replica: %v — shutting down\n", s)
			hsrv.Close()
			r.Close()
		})
	}
}
