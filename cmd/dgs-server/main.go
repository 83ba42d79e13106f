// Command dgs-server runs a standalone DGS parameter server over TCP.
// Workers (cmd/dgs-worker) connect to it with matching model/dataset flags
// so the layer geometry agrees.
//
// Example (three terminals):
//
//	dgs-server -addr 127.0.0.1:7000 -workers 2
//	dgs-worker -addr 127.0.0.1:7000 -id 0 -workers 2
//	dgs-worker -addr 127.0.0.1:7000 -id 1 -workers 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/nn"
	"dgs/internal/ps"
	"dgs/internal/telemetry"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// capturer is the slice of the server surface the checkpoint loop needs;
// both ps.Server and ps.ShardedServer satisfy it.
type capturer interface {
	NewCaptureState() *checkpoint.State
	Capture(*checkpoint.State) (checkpoint.CaptureStats, error)
	Timestamp() uint64
}

func fatalIf(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgs-server: %s: %v\n", what, err)
		os.Exit(1)
	}
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "listen address")
		workers   = flag.Int("workers", 4, "number of workers that will attach")
		classes   = flag.Int("classes", 10, "model output classes (must match workers)")
		inC       = flag.Int("inc", 3, "input channels")
		inHW      = flag.Int("hw", 16, "input spatial size")
		secondary = flag.Bool("secondary", false, "enable downward secondary compression")
		ratio     = flag.Float64("ratio", 0.01, "secondary compression keep ratio")
		denseDown = flag.Bool("dense-down", false, "ship the whole model downward (ASGD mode)")
		codec     = flag.String("codec", "mirror", "downward wire codec policy: mirror (answer in the request's codec) or a codec name (raw|ternary|sbc) forced for v3 peers")
		shards    = flag.Int("shards", 1, "partition layers across this many lock-independent shards (in one process, a few percent faster than 1 at most)")
		blockSize = flag.Int("block-size", 0, "dirty-tracking block size in elements (power of two; 0 = auto-tune from the layer geometry)")
		statEvery = flag.Duration("stats", 10*time.Second, "stats print interval")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-exchange deadline (0 disables)")

		ckptDir      = flag.String("checkpoint-dir", "", "directory for crash-recovery checkpoints (empty disables; restores the latest on start)")
		ckptEvery    = flag.Duration("checkpoint-interval", 30*time.Second, "asynchronous checkpoint interval")
		ckptKeep     = flag.Int("checkpoint-keep", 3, "checkpoints retained on disk")
		maxInflight  = flag.Int("max-inflight", 0, "admission bound on concurrently executing pushes (0 = unbounded); excess pushes get a RetryAfter frame")
		retryHint    = flag.Duration("retry-hint", 5*time.Millisecond, "backoff hint attached to overload rejections")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before exiting anyway")

		metrics       = flag.String("metrics", "127.0.0.1:9090", "telemetry HTTP address for /metrics, /manifest and /debug/pprof (empty disables)")
		manifestPath  = flag.String("manifest", "", "periodically write the JSON run manifest to this file")
		manifestEvery = flag.Duration("manifest-every", 10*time.Second, "manifest write interval")
	)
	flag.Parse()

	model := nn.NewResNetS(tensor.NewRNG(1), nn.ResNetSConfig{
		InC: *inC, H: *inHW, W: *inHW,
		StageChannels: []int{8, 16, 32}, Blocks: 1, Classes: *classes,
	})
	shift := uint(0)
	if *blockSize > 0 {
		if *blockSize&(*blockSize-1) != 0 {
			fmt.Fprintf(os.Stderr, "dgs-server: -block-size %d is not a power of two\n", *blockSize)
			os.Exit(2)
		}
		for 1<<shift < *blockSize {
			shift++
		}
	}
	cfg := ps.Config{
		LayerSizes:     model.LayerSizes(),
		Workers:        *workers,
		Secondary:      *secondary,
		SecondaryRatio: *ratio,
		DenseDownward:  *denseDown,
		BlockShift:     shift,
	}
	// Restart recovery: when a checkpoint directory is configured and holds
	// a readable snapshot, the server resumes from it instead of θ0 — the
	// session layer's fresh incarnation id then makes every reconnecting
	// worker detect the restart and resync.
	var server ps.Pusher
	var capSrv capturer
	restored, restoredCodec := "", ""
	if *ckptDir != "" {
		if st, path, err := checkpoint.LoadLatest(*ckptDir); err == nil {
			restoredCodec = st.Codec
			if *shards > 1 {
				s, rerr := ps.RestoreShardedServer(cfg, *shards, st)
				fatalIf(rerr, "restore "+path)
				server, capSrv = s, s
			} else {
				s, rerr := ps.RestoreServer(cfg, st)
				fatalIf(rerr, "restore "+path)
				server, capSrv = s, s
			}
			restored = path
		} else if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			fatalIf(err, "load checkpoint")
		}
	}
	if server == nil {
		if *shards > 1 {
			s := ps.NewShardedServer(cfg, *shards)
			server, capSrv = s, s
		} else {
			s := ps.NewServer(cfg)
			server, capSrv = s, s
		}
	}
	// The exactly-once session layer makes worker retries safe (replayed
	// pushes answer from cache instead of re-applying) and resyncs
	// crashed-and-rejoined workers with a dense snapshot. The admission
	// gate sits outside it so shed pushes never consume session state.
	eo, err := trainer.ExactlyOnceHandlerWithCodec(server, *codec)
	fatalIf(err, "codec policy")
	gate := transport.NewGate(eo.Handle, *maxInflight)
	gate.RetryHint = *retryHint
	gate.DrainHint = *drainTimeout
	srv, err := transport.ListenTCP(*addr, gate.Handle)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgs-server:", err)
		os.Exit(1)
	}
	srv.SetExchangeTimeout(*timeout)
	defer srv.Close()
	fmt.Printf("dgs-server: listening on %s (%d params, %d workers, %d shard(s), secondary=%v, codec=%s)\n",
		srv.Addr(), model.NumParams(), *workers, *shards, *secondary, *codec)
	if restored != "" {
		fmt.Printf("dgs-server: restored state from %s (t=%d)\n", restored, capSrv.Timestamp())
		if restoredCodec != "" && restoredCodec != *codec {
			// Legal — error folding makes snapshots codec-agnostic — but worth
			// flagging so an operator notices the policy change.
			fmt.Printf("dgs-server: note: snapshot was taken under codec policy %q, continuing with %q\n",
				restoredCodec, *codec)
		}
	}

	// Asynchronous checkpointing: a dedicated goroutine captures a
	// consistent cut (incremental — only blocks dirtied since the previous
	// capture are copied) and writes it atomically, entirely off the push
	// path. finalCkpt is reused by the drain path for the shutdown snapshot.
	var ckptWriter *checkpoint.Writer
	var capState *checkpoint.State
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	close(ckptDone)
	finalCkpt := func(what string) {
		if ckptWriter == nil {
			return
		}
		if _, err := capSrv.Capture(capState); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-server: %s capture: %v\n", what, err)
			return
		}
		path, err := ckptWriter.Write(capState)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgs-server: %s write: %v\n", what, err)
			return
		}
		fmt.Printf("dgs-server: %s checkpoint %s (t=%d)\n", what, path, capSrv.Timestamp())
	}
	if *ckptDir != "" {
		ckptWriter = &checkpoint.Writer{Dir: *ckptDir, Keep: *ckptKeep}
		capState = capSrv.NewCaptureState()
		capState.Codec = *codec
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			var lastT uint64
			wrote := false
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					stats, err := capSrv.Capture(capState)
					if err != nil {
						fmt.Fprintf(os.Stderr, "dgs-server: checkpoint capture: %v\n", err)
						continue
					}
					// An idle server would otherwise rewrite an identical
					// file every interval; skip until something changes.
					t := capSrv.Timestamp()
					if wrote && stats.BlocksCopied == 0 && t == lastT {
						continue
					}
					if _, err := ckptWriter.Write(capState); err != nil {
						fmt.Fprintf(os.Stderr, "dgs-server: checkpoint write: %v\n", err)
						continue
					}
					lastT, wrote = t, true
					fmt.Printf("dgs-server: checkpoint t=%d (%d blocks copied, %d skipped, %d bytes)\n",
						t, stats.BlocksCopied, stats.BlocksSkipped, stats.Bytes)
				}
			}
		}()
	}

	manifest := telemetry.NewManifest(nil)
	manifest.Set("role", "server")
	manifest.Set("workers", *workers)
	manifest.Set("params", model.NumParams())
	manifest.Set("secondary", *secondary)
	manifest.Set("secondary_ratio", *ratio)
	manifest.Set("dense_downward", *denseDown)
	manifest.Set("codec", *codec)
	manifest.Set("shards", *shards)
	manifest.Set("addr", srv.Addr())
	if *metrics != "" {
		msrv, err := telemetry.ListenAndServe(*metrics, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dgs-server:", err)
			os.Exit(1)
		}
		msrv.SetManifest(manifest)
		defer msrv.Close()
		fmt.Printf("dgs-server: telemetry on %s/metrics\n", msrv.URL())
	}
	if *manifestPath != "" {
		stop := manifest.StartPeriodic(*manifestPath, *manifestEvery)
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*statEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := server.Stats()
			mean := 0.0
			if st.Pushes > 0 {
				mean = float64(st.StalenessSum) / float64(st.Pushes)
			}
			ss := eo.Stats()
			fmt.Printf("dgs-server: pushes=%d staleness(mean=%.2f max=%d) traffic(up=%dKB down=%dKB) sessions(joins=%d replays=%d stale=%d resyncs=%d)\n",
				st.Pushes, mean, st.MaxStaleness, srv.Traffic.Up()/1000, srv.Traffic.Down()/1000,
				ss.Hellos, ss.Replays, ss.StaleRejected, st.Resyncs)
		case s := <-sig:
			// Graceful drain: stop admitting pushes (workers get RetryAfter
			// and back off), let in-flight ones finish, stop the periodic
			// checkpointer, take the final snapshot, exit. Eq. 5 holds in
			// the snapshot because nothing is mid-apply once Drain returns.
			fmt.Printf("dgs-server: %v — draining\n", s)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := gate.Drain(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "dgs-server: drain incomplete: %v\n", err)
			}
			cancel()
			close(stopCkpt)
			<-ckptDone
			finalCkpt("final")
			fmt.Println("dgs-server: shutting down")
			return
		}
	}
}
