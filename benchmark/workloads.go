package main

import (
	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/tensor"
)

// workload is one set of inputs the benchmark runs. A run of a workload is
// a sequence of episodes, each on a freshly built topology with its own
// inputs derived from the seed; the run reports medians over its episodes.
type workload struct {
	name string
	// why records what the workload stresses and which other workload is
	// its bypass; BENCHMARK.json carries the same line.
	why   string
	train *trainSpec
	fleet *fleetSpec
}

func (w *workload) episode(seed uint64, tcr *tracer) (*episode, error) {
	if w.train != nil {
		return runTrainEpisode(w.train, seed, tcr)
	}
	return runFleetEpisode(w.fleet, seed, tcr)
}

func mlp(rng *tensor.RNG) *nn.Model { return nn.NewMLP(rng, 64, 512, 512, 64) } // ≈330k parameters

func mixture(seed uint64) data.Dataset {
	return data.NewGaussianMixture(64, 64, 8192, 512, 0.8, seed)
}

// cifarLike is data.CIFARLike with the train split sized for a 768-step
// episode at batch 8.
func cifarLike(seed uint64) data.Dataset {
	cfg := data.CIFARLike(seed)
	cfg.Train = 6144
	return data.NewSyntheticImages(cfg)
}

// The episode sizes put about five seconds of measured work in an episode
// on the two cores the baseline was recorded on, and the loss targets sit
// where the trailing mean still falls steeply, so the step that reaches
// them moves little from seed to seed.
var workloads = []*workload{
	{
		name: "mlp_dgs",
		why:  "training where forward/backward is a quarter of a 20 ms step (240 KB/step), so optim, sparse, transport and ps do most of the work; sync stack, one shard, plain gather",
		train: &trainSpec{
			model: mlp, dataset: mixture, batch: 64, keep: 0.05, lr: 0.02,
			depth: 1, shards: 1, epochs: 2, window: 64, target: 2.5,
		},
	},
	{
		name: "mlp_dual_pipe",
		why:  "same model through the other path of every layer: Eq. 6 secondary gather, pipelined PipelinedSession/MuxConn stack at depth 2, two shards; mlp_dgs is its bypass",
		train: &trainSpec{
			model: mlp, dataset: mixture, batch: 64, keep: 0.05, lr: 0.02,
			secondary: true, depth: 2, shards: 2, epochs: 2, window: 64, target: 2.5,
		},
	},
	{
		name: "resnet_dgs",
		why:  "compute-bound training: forward/backward is over four fifths of an 8 ms step and 3.6 KB/step cross the wire, so nn and tensor changes move it and exchange-path changes should not",
		train: &trainSpec{
			model:   func(rng *tensor.RNG) *nn.Model { return nn.NewResNetS(rng, nn.DefaultResNetS(10)) },
			dataset: cifarLike,
			batch:   8, keep: 0.01, lr: 0.1,
			depth: 1, shards: 1, epochs: 1, window: 256, target: 1.6,
		},
	},
	{
		name:  "embed_push_read",
		why:   "server-bound fleet, no nn: 16 sessions saturate ps.Server with row-clustered embedding pushes while a replica subscriber and a 20 Hz reader read beside the writes; bypasses agg",
		fleet: &fleetSpec{reader: true},
	},
	{
		name:  "embed_agg",
		why:   "the same 16-session push stream through one aggregator (window 16) to the same server, no reader: the only workload where agg works; embed_push_read is its bypass",
		fleet: &fleetSpec{viaAgg: true},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
