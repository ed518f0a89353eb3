// Learnability study (the paper's Section VI-B, Figure 6): sweep a small
// (Vth, T) grid, train a spiking network at every point, and render the
// clean-accuracy heat map. Points that fail the 70 % learnability gate
// are exactly the ones Algorithm 1 refuses to attack.
//
// Run with:
//
//	go run ./examples/learnability
//
// The grid here is intentionally tiny so the example finishes in about a
// minute on one CPU core; `snnsec grid` runs the full preset.
package main

import (
	"fmt"
	"log"
	"os"

	"snnsec/internal/core"
	"snnsec/internal/explore"
	"snnsec/internal/report"
	"snnsec/internal/snn"
	"snnsec/internal/train"
)

func main() {
	log.SetFlags(0)
	trainDS, testDS, err := core.LoadData(core.DataConfig{TrainN: 400, TestN: 60, ImageSize: 16, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	net := core.DefaultLeNetConfig(16, 7)
	cfg := explore.Config{
		// A deliberately wide threshold range: the highest value
		// approaches the silent regime where too few spikes reach the
		// readout within the window.
		Vths:              []float64{0.5, 1, 3},
		Ts:                []int{4, 12},
		Epsilons:          []float64{1.0}, // unused cells are fine for a learnability-only view
		AccuracyThreshold: 0.70,
		Train: train.Config{
			Epochs:    5,
			BatchSize: 32,
			GradClip:  5,
		},
		NewOptimizer: func() train.Optimizer { return train.NewAdam(3e-3) },
		AttackSteps:  3,
		EvalBatch:    32,
		Build: func(vth float64, T int) (*snn.Network, error) {
			return core.NewSpikingLeNet5(net, vth, T)
		},
		Seed: 42,
	}
	res, err := explore.Run(cfg, trainDS, testDS)
	if err != nil {
		log.Fatal(err)
	}

	report.AccuracyGrid(res).WriteASCII(os.Stdout)
	fmt.Println()
	fmt.Printf("%d of %d grid points pass the A_th = 70%% gate\n", res.LearnableCount(), len(res.Points))
	for i := range res.Points {
		p := &res.Points[i]
		status := "learns"
		if !p.Learnable {
			status = "REJECTED (Algorithm 1, line 18)"
		}
		fmt.Printf("  (Vth=%-4g T=%-3d) accuracy %.3f — %s\n", p.Vth, p.T, p.CleanAccuracy, status)
	}
}
