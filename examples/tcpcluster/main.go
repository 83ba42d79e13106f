// TCP cluster: the same DGS training, but every worker↔server exchange
// crosses a real TCP socket (the multi-process deployment path used by
// `dgs server` and `dgs worker`). Setting Config.TCPAddr is the only
// change from the in-process quickstart.
package main

import (
	"fmt"
	"log"

	"dgs"
)

func main() {
	res, err := dgs.Train(dgs.Config{
		Method:    dgs.DGS,
		Workers:   4,
		Model:     dgs.ModelMLP,
		Dataset:   dgs.DatasetMixture,
		Epochs:    4,
		BatchSize: 32,
		KeepRatio: 0.05,
		TCPAddr:   "127.0.0.1:0", // pick any free port
		EvalLimit: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Trained over real TCP sockets:")
	fmt.Printf("  final accuracy: %.2f%%\n", 100*res.FinalAccuracy)
	fmt.Printf("  wire traffic:   %.2f MB up, %.2f MB down across %d iterations\n",
		float64(res.BytesUp)/1e6, float64(res.BytesDown)/1e6, res.Iterations)
	fmt.Println("\nFor separate processes, run `go run ./cmd/dgs server` and `go run ./cmd/dgs worker` instead.")
}
