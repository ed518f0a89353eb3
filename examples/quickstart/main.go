// Quickstart: train a spiking LeNet-5 on the synthetic digit dataset,
// measure its clean accuracy, then attack it with white-box PGD at one
// noise budget — the minimal end-to-end tour of the library's public
// surface (dataset → model → training → attack → evaluation).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"snnsec/internal/attack"
	"snnsec/internal/core"
)

func main() {
	log.SetFlags(0)

	// 1. Data: 16×16 synthetic digits in MNIST-normalised units (set
	//    SNNSEC_MNIST_DIR to use real MNIST instead).
	trainDS, testDS, err := core.LoadData(core.DataConfig{TrainN: 400, TestN: 80, ImageSize: 16, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d train / %d test samples, %d classes\n",
		trainDS.Len(), testDS.Len(), trainDS.NumClasses())

	// 2. Model + training: a spiking LeNet-5 at the default structural
	//    point (Vth=1) with a 12-step time window.
	scale := core.BenchScale()
	const (
		vth = 1.0
		T   = 12
	)
	net, acc, err := scale.TrainSNN(vth, T, trainDS, testDS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SNN(Vth=%g, T=%d): clean test accuracy %.3f\n", vth, T, acc)

	// 3. White-box PGD attack (Eq. 3 of the paper) at ε = 1.0 in
	//    normalised units, differentiating through the full unrolled
	//    time window: the attack the grid runs at this (Vth, T) point.
	cfg, idx := scale.Point(vth, T)
	atk := cfg.PGD(idx, nil, attack.DatasetBounds(testDS))(1.0)
	ev := attack.Evaluate(net, testDS, atk, 32)
	fmt.Println(ev.String())
	fmt.Printf("robustness (paper's metric, Algorithm 1 line 15): %.3f\n", ev.RobustAccuracy)

	if ev.RobustAccuracy > ev.CleanAccuracy {
		fmt.Fprintln(os.Stderr, "warning: robust accuracy exceeded clean accuracy — attack ineffective?")
	}
}
