package dgs_test

import (
	"fmt"
	"log"

	"dgs"
)

// The smallest complete training run: four asynchronous workers learning a
// Gaussian-mixture task with DGS at top-5% sparsity.
func ExampleTrain() {
	res, err := dgs.Train(dgs.Config{
		Method:    dgs.DGS,
		Workers:   4,
		Model:     dgs.ModelMLP,
		Dataset:   dgs.DatasetMixture,
		Epochs:    3,
		KeepRatio: 0.05,
		EvalLimit: 128,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Accuracy depends on async interleaving; assert the robust property.
	fmt.Println(res.FinalAccuracy > 0.5)
	fmt.Println(res.BytesUp > 0 && res.BytesDown > 0)
	// Output:
	// true
	// true
}

// Estimating deployment wall-clock from measured traffic: a dense-exchange
// method saturates a 1 Gbps link that a sparse method barely touches.
func ExampleSimulate() {
	dense := dgs.Simulate(dgs.ClusterSim{
		Workers:        16,
		BandwidthGbps:  1,
		ComputeSeconds: 0.3,
		UpBytes:        46e6, // ResNet-18-size dense messages
		DownBytes:      46e6,
	})
	sparseRun := dgs.Simulate(dgs.ClusterSim{
		Workers:        16,
		BandwidthGbps:  1,
		ComputeSeconds: 0.3,
		UpBytes:        46e4, // top-1% sparse messages
		DownBytes:      46e4,
	})
	fmt.Println(dense.Speedup < 2)
	fmt.Println(sparseRun.Speedup > 10)
	// Output:
	// true
	// true
}

// Comparing two methods through the public API.
func ExampleMethods() {
	for _, m := range []dgs.Method{dgs.ASGD, dgs.DGS} {
		fmt.Println(m.String())
	}
	// Output:
	// ASGD
	// DGS
}

// The same training with every worker↔server exchange crossing a real TCP
// socket: the multi-process deployment path of `dgs server` and
// `dgs worker`, in one process. Setting Config.TCPAddr is the only change.
func ExampleTrain_tcpCluster() {
	res, err := dgs.Train(dgs.Config{
		Method:    dgs.DGS,
		Workers:   4,
		Model:     dgs.ModelMLP,
		Dataset:   dgs.DatasetMixture,
		Epochs:    3,
		KeepRatio: 0.05,
		TCPAddr:   "127.0.0.1:0", // any free port
		EvalLimit: 128,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.FinalAccuracy > 0.5)
	fmt.Println(res.BytesUp > 0 && res.BytesDown > 0)
	// Output:
	// true
	// true
}

// Federated-style training (paper §4.2.2): with many workers the model
// difference a worker pulls accumulates many peers' updates and stops being
// sparse. Secondary compression re-sparsifies it at the server, bounding
// the downward message; the remainder stays in M − v_k, so nothing is lost.
func ExampleTrain_federated() {
	down := map[bool]float64{}
	for _, secondary := range []bool{false, true} {
		res, err := dgs.Train(dgs.Config{
			Method:         dgs.DGS,
			Workers:        16,
			Model:          dgs.ModelMLP,
			Dataset:        dgs.DatasetMixture,
			Epochs:         2,
			BatchSize:      8,
			Secondary:      secondary,
			SecondaryRatio: 0.01,
			EvalLimit:      128,
		})
		if err != nil {
			log.Fatal(err)
		}
		down[secondary] = res.AvgDownBytes
	}
	fmt.Println(down[true] < down[false])
	// Output:
	// true
}
