package main

import (
	"flag"
	"fmt"
	"os"

	"dgs"
	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/stats"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// workerCmd runs one training worker against `dgs server` or `dgs agg`.
// Geometry flags must match the server's.
func workerCmd(fs *flag.FlagSet) func() {
	var geo geometry
	var tr training
	var dial trainer.DialOptions
	var faults transport.FaultConfig
	var metrics string
	id := fs.Int("id", 0, "this worker's id (0..workers-1)")
	rejoins := fs.Int("rejoins", 0, "crash-recovery budget: restart the loop as a fresh incarnation this many times")
	geo.register(fs)
	tr.register(fs)
	dialFlags(fs, &dial, "addr")
	fs.Float64Var(&faults.DropBeforeSend, "fault-drop", 0, "inject: P(request dropped before send)")
	fs.Float64Var(&faults.DropAfterSend, "fault-torn", 0, "inject: P(response torn after server processed)")
	fs.Float64Var(&faults.Duplicate, "fault-dup", 0, "inject: P(request delivered twice)")
	fs.Float64Var(&faults.Reset, "fault-reset", 0, "inject: P(connection reset)")
	fs.DurationVar(&faults.MaxDelay, "fault-delay", 0, "inject: max random per-exchange delay")
	fs.Uint64Var(&faults.Seed, "fault-seed", 1, "fault injection schedule seed")
	metricsFlag(fs, &metrics, "")
	return func() {
		defer startMetrics(metrics, fmt.Sprintf("dgs-worker %d", *id), nil)()
		m := must(pick("method", tr.method, methodNames, methods))

		dcfg := data.CIFARLike(tr.Seed)
		dcfg.C, dcfg.H, dcfg.W = geo.inC, geo.hw, geo.hw
		dcfg.Classes = geo.classes
		cfg := trainer.Config{
			Method: m, Workers: tr.Workers, BatchSize: tr.BatchSize, Epochs: tr.Epochs,
			LR: float32(tr.lr), LRDecayAt: []int{tr.Epochs * 6 / 10, tr.Epochs * 8 / 10},
			Momentum: float32(tr.momentum), KeepRatio: tr.KeepRatio,
			Codec: tr.Codec,
			Seed:  tr.Seed, Dataset: data.NewSyntheticImages(dcfg),
			BuildModel:    func(rng *tensor.RNG) *nn.Model { return nn.NewResNetS(rng, geo.resnet()) },
			EvalLimit:     512,
			PipelineDepth: tr.PipelineDepth,
		}

		// Transport stack: trainer.NewDialStack builds the one client — a
		// PipelinedSession with -pipeline exchanges in flight over wire-v2
		// mux links, each optionally wrapped in the seeded Faulty decorator
		// (the -fault-* flags apply at any depth). Each call is one worker
		// incarnation; its hello makes the server resync this id and ship a
		// dense snapshot.
		if faults.DropBeforeSend > 0 || faults.DropAfterSend > 0 || faults.Duplicate > 0 || faults.Reset > 0 || faults.MaxDelay > 0 {
			faults.Delay = 0.25
			dial.Faults = &faults
		}
		dial.Pipeline = tr.PipelineDepth

		fmt.Printf("dgs-worker %d: connecting to %s, method=%s\n", *id, dial.Addr, m)
		res := must(trainer.RunResilientWorkerLoop(cfg, *id, trainer.NewDialStack(dial), *rejoins))
		fmt.Printf("dgs-worker %d: done, %d iterations, final loss %.4f\n", *id, res.Iterations, res.Loss.Last().Y)
		if *id == 0 {
			fmt.Printf("dgs-worker 0: final top-1 accuracy %.2f%%\n", 100*res.FinalAccuracy)
		}
	}
}

var (
	models = map[string]dgs.ModelKind{
		"resnets": dgs.ModelResNetS, "resnet": dgs.ModelResNetS,
		"cnn": dgs.ModelCNN, "mlp": dgs.ModelMLP,
	}
	datasets = map[string]dgs.DatasetKind{
		"cifar": dgs.DatasetCIFARLike, "cifar-like": dgs.DatasetCIFARLike,
		"imagenet": dgs.DatasetImageNetLike, "imagenet-like": dgs.DatasetImageNetLike,
		"mixture": dgs.DatasetMixture, "spirals": dgs.DatasetSpirals,
	}
)

// trainCmd runs one training configuration in process (or over loopback
// TCP with -tcp) and prints the learning curve and summary statistics.
//
//	dgs train -method dgs -workers 4 -dataset cifar -epochs 10
//	dgs train -method asgd -workers 8 -dataset mixture -model mlp
//	dgs train -method dgs -secondary -tcp 127.0.0.1:0
func trainCmd(fs *flag.FlagSet) func() {
	var tr training
	tr.register(fs)
	model := fs.String("model", "resnets", "model: resnets|cnn|mlp")
	dataset := fs.String("dataset", "cifar", "dataset: cifar|imagenet|mixture|spirals")
	clip := fs.Float64("clip", 0, "global-norm gradient clip (0 = off)")
	wd := fs.Float64("wd", 0, "L2 weight decay (0 = off)")
	fs.BoolVar(&tr.Secondary, "secondary", false, "enable downward secondary compression")
	fs.Float64Var(&tr.WarmupFrac, "warmup", 0, "warm-up fraction of training (0 = off)")
	fs.IntVar(&tr.Shards, "shards", 1, "parameter-server shards (in one process, a few percent faster than 1 at most)")
	fs.Float64Var(&tr.DataScale, "datascale", 1, "dataset size multiplier")
	fs.StringVar(&tr.TCPAddr, "tcp", "", "run exchanges over TCP at this address (e.g. 127.0.0.1:0)")
	fs.StringVar(&tr.ManifestPath, "manifest", "", "periodically write the JSON run manifest to this file")
	metricsFlag(fs, &tr.MetricsAddr, "")
	csv := fs.String("csv", "", "write loss/accuracy curves to this CSV file")
	return func() {
		tr.Method = must(pick("method", tr.method, methodNames, methods))
		tr.Model = must(pick("model", *model, "resnets|cnn|mlp", models))
		tr.Dataset = must(pick("dataset", *dataset, "cifar|imagenet|mixture|spirals", datasets))
		tr.LR, tr.Momentum = float32(tr.lr), float32(tr.momentum)
		tr.GradClip, tr.WeightDecay = float32(*clip), float32(*wd)

		res := must(dgs.Train(tr.Config))

		fmt.Printf("method=%s workers=%d model=%s dataset=%s\n", res.Method, tr.Workers, *model, *dataset)
		fmt.Println("\nTraining loss vs epoch:")
		fmt.Print(stats.AsciiPlot(72, 16, res.Loss))
		fmt.Println("\nTest accuracy vs epoch:")
		fmt.Print(stats.AsciiPlot(72, 12, res.Accuracy))
		fmt.Printf("\nfinal top-1 accuracy: %.2f%%\n", 100*res.FinalAccuracy)
		fmt.Printf("iterations: %d\n", res.Iterations)
		fmt.Printf("traffic: up %.1f KB/iter, down %.1f KB/iter (total %.2f MB up, %.2f MB down)\n",
			res.AvgUpBytes/1e3, res.AvgDownBytes/1e3, float64(res.BytesUp)/1e6, float64(res.BytesDown)/1e6)
		fmt.Printf("staleness: mean %.2f, max %d\n", res.MeanStaleness, res.MaxStaleness)
		fmt.Printf("memory: worker optimizer %d B, server %d B\n", res.WorkerStateBytes, res.ServerStateBytes)
		fmt.Printf("compute: %.1f ms/iteration\n", 1000*res.ComputePerIter)

		if *csv != "" {
			f := must(os.Create(*csv))
			defer f.Close()
			fatalIf(stats.WriteCSV(f, res.Loss, res.Accuracy), "")
			fmt.Printf("curves written to %s\n", *csv)
		}
	}
}
