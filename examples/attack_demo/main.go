// Attack demo: craft a single white-box PGD adversarial example against a
// trained spiking network and visualise it in the terminal — the
// "handwritten bank-check digit" scenario from the paper's introduction,
// where flipping one digit reroutes a payment. The demo prints the clean
// digit, the adversarial digit and the perturbation as ASCII art together
// with the victim's predictions.
//
// Run with:
//
//	go run ./examples/attack_demo
package main

import (
	"fmt"
	"log"

	"snnsec/internal/attack"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

const ramp = " .:-=+*#%@"

// render prints a single-channel image tensor [1,1,H,W] as ASCII art,
// de-normalising back to [0,1] intensity for display.
func render(title string, img *tensor.Tensor) {
	fmt.Println(title)
	h, w := img.Dim(2), img.Dim(3)
	for y := 0; y < h; y++ {
		row := make([]byte, w)
		for x := 0; x < w; x++ {
			v := img.At(0, 0, y, x)*dataset.MNISTStd + dataset.MNISTMean
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			row[x] = ramp[int(v*float64(len(ramp)-1))]
		}
		fmt.Printf("  |%s|\n", row)
	}
}

func main() {
	log.SetFlags(0)
	trainDS, testDS, err := core.LoadData(core.DataConfig{TrainN: 400, TestN: 40, ImageSize: 16, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	scale := core.BenchScale()
	const (
		vth = 1.0
		T   = 12
		eps = 1.5
	)
	net, acc, err := scale.TrainSNN(vth, T, trainDS, testDS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim SNN(Vth=%g, T=%d), clean accuracy %.3f\n\n", vth, T, acc)

	// Find a correctly classified test digit to attack.
	preds := train.Predict(net, testDS.X)
	idx := -1
	for i, p := range preds {
		if p == testDS.Y[i] {
			idx = i
			break
		}
	}
	if idx < 0 {
		log.Fatal("no correctly classified sample to attack")
	}
	x := tensor.New(1, 1, 16, 16)
	x.SetSlice(0, testDS.X.Slice(idx))
	label := testDS.Y[idx]

	// The grid's attack at this (Vth, T) point, run for ten steps.
	cfg, pi := scale.Point(vth, T)
	cfg.AttackSteps = 10
	adv := cfg.PGD(pi, nil, attack.DatasetBounds(testDS))(eps).Perturb(net, x, []int{label})
	advPred := train.Predict(net, adv)[0]

	render(fmt.Sprintf("clean digit (true label %d, predicted %d):", label, label), x)
	fmt.Println()
	render(fmt.Sprintf("adversarial digit (predicted %d):", advPred), adv)
	fmt.Println()
	delta := tensor.Sub(adv, x)
	fmt.Printf("perturbation:  L-inf = %.3f (budget %.3f),  L2 = %.3f\n",
		tensor.NormInf(delta), eps, tensor.Norm2(delta))
	if advPred != label {
		fmt.Println("attack SUCCEEDED — the digit reads differently to the network")
	} else {
		fmt.Println("attack FAILED — the spiking network held its prediction")
	}
}
