// Command dgs-train runs one training configuration and prints the learning
// curve and summary statistics.
//
// Examples:
//
//	dgs-train -method dgs -workers 4 -dataset cifar -epochs 10
//	dgs-train -method asgd -workers 8 -dataset mixture -model mlp
//	dgs-train -method dgs -secondary -tcp 127.0.0.1:0
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dgs"
	"dgs/internal/stats"
)

func parseMethod(s string) (dgs.Method, error) {
	switch strings.ToLower(s) {
	case "msgd":
		return dgs.MSGD, nil
	case "asgd":
		return dgs.ASGD, nil
	case "gd", "gd-async":
		return dgs.GDAsync, nil
	case "dgc", "dgc-async":
		return dgs.DGCAsync, nil
	case "dgs":
		return dgs.DGS, nil
	}
	return 0, fmt.Errorf("unknown method %q (msgd|asgd|gd|dgc|dgs)", s)
}

func parseModel(s string) (dgs.ModelKind, error) {
	switch strings.ToLower(s) {
	case "resnets", "resnet":
		return dgs.ModelResNetS, nil
	case "cnn":
		return dgs.ModelCNN, nil
	case "mlp":
		return dgs.ModelMLP, nil
	}
	return 0, fmt.Errorf("unknown model %q (resnets|cnn|mlp)", s)
}

func parseDataset(s string) (dgs.DatasetKind, error) {
	switch strings.ToLower(s) {
	case "cifar", "cifar-like":
		return dgs.DatasetCIFARLike, nil
	case "imagenet", "imagenet-like":
		return dgs.DatasetImageNetLike, nil
	case "mixture":
		return dgs.DatasetMixture, nil
	case "spirals":
		return dgs.DatasetSpirals, nil
	}
	return 0, fmt.Errorf("unknown dataset %q (cifar|imagenet|mixture|spirals)", s)
}

func main() {
	var (
		method    = flag.String("method", "dgs", "training method: msgd|asgd|gd|dgc|dgs")
		workers   = flag.Int("workers", 4, "number of asynchronous workers")
		model     = flag.String("model", "resnets", "model: resnets|cnn|mlp")
		dataset   = flag.String("dataset", "cifar", "dataset: cifar|imagenet|mixture|spirals")
		batch     = flag.Int("batch", 8, "per-worker batch size")
		epochs    = flag.Int("epochs", 6, "training epochs")
		lr        = flag.Float64("lr", 0.1, "initial learning rate")
		momentum  = flag.Float64("momentum", 0.7, "momentum coefficient m")
		keep      = flag.Float64("keep", 0.01, "Top-k keep ratio R (0.01 = top 1%)")
		secondary = flag.Bool("secondary", false, "enable downward secondary compression")
		clip      = flag.Float64("clip", 0, "global-norm gradient clip (0 = off)")
		wd        = flag.Float64("wd", 0, "L2 weight decay (0 = off)")
		warmup    = flag.Float64("warmup", 0, "warm-up fraction of training (0 = off)")
		ternary   = flag.Bool("ternary", false, "ternary-quantize sparse values (legacy, no error feedback; prefer -codec)")
		codec     = flag.String("codec", "raw", "wire compression backend (raw|ternary|sbc); lossy codecs fold their error into the residual state")
		shards    = flag.Int("shards", 1, "parameter-server shards (in one process, a few percent faster than 1 at most)")
		seed      = flag.Uint64("seed", 1, "random seed")
		scale     = flag.Float64("datascale", 1, "dataset size multiplier")
		tcp       = flag.String("tcp", "", "run exchanges over TCP at this address (e.g. 127.0.0.1:0)")
		pipeline  = flag.Int("pipeline", 1, "in-flight exchanges per worker (1 = synchronous, >1 overlaps comm with compute)")
		csv       = flag.String("csv", "", "write loss/accuracy curves to this CSV file")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug/pprof at this address (e.g. 127.0.0.1:9090)")
		manifest  = flag.String("manifest", "", "periodically write the JSON run manifest to this file")
	)
	flag.Parse()

	m, err := parseMethod(*method)
	fatalIf(err)
	mk, err := parseModel(*model)
	fatalIf(err)
	dk, err := parseDataset(*dataset)
	fatalIf(err)

	res, err := dgs.Train(dgs.Config{
		Method: m, Workers: *workers, Model: mk, Dataset: dk,
		BatchSize: *batch, Epochs: *epochs,
		LR: float32(*lr), Momentum: float32(*momentum),
		KeepRatio: *keep, Secondary: *secondary,
		GradClip: float32(*clip), WeightDecay: float32(*wd),
		WarmupFrac: *warmup, Ternary: *ternary, Codec: *codec, Shards: *shards,
		Seed: *seed, DataScale: *scale,
		TCPAddr: *tcp, PipelineDepth: *pipeline,
		MetricsAddr: *metrics, ManifestPath: *manifest,
	})
	fatalIf(err)

	fmt.Printf("method=%s workers=%d model=%s dataset=%s\n", res.Method, *workers, *model, *dataset)
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
		f, err := os.Create(*csv)
		fatalIf(err)
		defer f.Close()
		fatalIf(stats.WriteCSV(f, res.Loss, res.Accuracy))
		fmt.Printf("curves written to %s\n", *csv)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgs-train:", err)
		os.Exit(1)
	}
}
