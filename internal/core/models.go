// Package core is the facade of the reproduction: it builds the paper's
// two victim models (the LeNet-5 CNN baseline and its spiking counterpart
// with configurable structural parameters Vth and T), loads the
// experiment dataset, and exposes one runner per figure of the paper's
// evaluation (Figures 1, 6, 7, 8, 9). The benchmark harness and the CLI
// are thin wrappers around this package.
package core

import (
	"fmt"
	"os"

	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// NumClasses is the digit-classification class count.
const NumClasses = 10

// LeNetConfig scales the LeNet-5 family to the experiment budget. The
// paper uses the full 28×28 LeNet-5 ("a 5-layer CNN, with 3 convolutional
// layers and 2 fully-connected layers" counting the readout); the bench
// preset shrinks the trunk while keeping the conv-conv-fc-fc shape so the
// CNN and SNN remain architecture-matched.
type LeNetConfig struct {
	// ImageSize is the square input side (16 in the bench preset, 28
	// for MNIST scale).
	ImageSize int
	// C1, C2 are the two convolution widths (LeNet-5: 6 and 16).
	C1, C2 int
	// FC1 is the first fully connected width (LeNet-5: 120; the second
	// fully connected layer is the 10-way readout).
	FC1 int
	// Seed initialises the weights deterministically.
	Seed uint64
}

// DefaultLeNetConfig returns the bench-scale network for the given image
// size.
func DefaultLeNetConfig(imageSize int, seed uint64) LeNetConfig {
	return LeNetConfig{ImageSize: imageSize, C1: 6, C2: 12, FC1: 48, Seed: seed}
}

// FullLeNetConfig returns the paper-scale LeNet-5 (28×28, 6/16/120).
func FullLeNetConfig(seed uint64) LeNetConfig {
	return LeNetConfig{ImageSize: 28, C1: 6, C2: 16, FC1: 120, Seed: seed}
}

// flatSize computes the flattened feature count after the two conv+pool
// stages: conv k5 pad2 preserves size, each pool halves it, conv k3 pad1
// preserves.
func (c LeNetConfig) flatSize() (int, error) {
	if c.ImageSize%4 != 0 {
		return 0, fmt.Errorf("core: image size %d must be divisible by 4", c.ImageSize)
	}
	s := c.ImageSize / 4
	return c.C2 * s * s, nil
}

// NewLeNet5CNN builds the non-spiking baseline:
// conv5(1→C1) → ReLU → avgpool2 → conv3(C1→C2) → ReLU → avgpool2 →
// flatten → FC(FC1) → ReLU → FC(10).
func NewLeNet5CNN(cfg LeNetConfig) (*nn.Sequential, error) {
	flat, err := cfg.flatSize()
	if err != nil {
		return nil, err
	}
	r := tensor.NewRand(cfg.Seed, 0xc99)
	return nn.NewSequential(
		nn.NewConv2D(r, 1, cfg.C1, 5, 1, 2),
		nn.ReLU{},
		nn.AvgPool{K: 2},
		nn.NewConv2D(r, cfg.C1, cfg.C2, 3, 1, 1),
		nn.ReLU{},
		nn.AvgPool{K: 2},
		nn.Flatten{},
		nn.NewLinear(r, flat, cfg.FC1),
		nn.ReLU{},
		nn.NewLinear(r, cfg.FC1, NumClasses),
	), nil
}

// SNNOptions collects the spiking-specific knobs beyond (Vth, T).
type SNNOptions struct {
	// Alpha is the membrane decay (default 0.9).
	Alpha float64
	// Reset selects the post-spike reset (default ResetZero).
	Reset snn.ResetMode
	// Surrogate selects the backward spike derivative (default
	// FastSigmoid β=100, the Norse default).
	Surrogate snn.Surrogate
	// Encoder overrides the input encoding. The default is the paper's
	// rate coding (Fig. 3): a Poisson encoder whose rate de-normalises
	// the MNIST-normalised input back to [0,1] intensity, with a
	// straight-through gradient for white-box attacks.
	Encoder snn.Encoder
	// Mode selects the readout (default spike count).
	Mode snn.ReadoutMode
	// LogitScale (default 10).
	LogitScale float64
}

func (o *SNNOptions) fill(seed uint64) {
	if o.Alpha == 0 {
		o.Alpha = 0.9
	}
	if o.Surrogate == nil {
		o.Surrogate = snn.FastSigmoid{Beta: 25}
	}
	if o.Encoder == nil {
		o.Encoder = snn.NewNormalizedPoissonEncoder(1, dataset.MNISTMean, dataset.MNISTStd, seed, 0xe4c0de)
	}
	if o.LogitScale == 0 {
		o.LogitScale = 10
	}
}

// NewSpikingLeNet5 builds the spiking counterpart of NewLeNet5CNN with
// the same topology and neuron counts, the LIF populations replacing the
// ReLUs, firing threshold vth and time window T — the (Vth, T) point of
// the paper's exploration grid.
func NewSpikingLeNet5(cfg LeNetConfig, vth float64, T int, opts SNNOptions) (*snn.Network, error) {
	flat, err := cfg.flatSize()
	if err != nil {
		return nil, err
	}
	opts.fill(cfg.Seed)
	r := tensor.NewRand(cfg.Seed, 0x5a11)
	ncfg := snn.NeuronConfig{Vth: vth, Alpha: opts.Alpha, Reset: opts.Reset, Surrogate: opts.Surrogate}
	net := &snn.Network{
		Encoder: opts.Encoder,
		Hidden: []snn.Layer{
			{Syn: nn.NewConv2D(r, 1, cfg.C1, 5, 1, 2), Cfg: ncfg},
			{Syn: nn.NewSequential(nn.AvgPool{K: 2}, nn.NewConv2D(r, cfg.C1, cfg.C2, 3, 1, 1)), Cfg: ncfg},
			{Syn: nn.NewSequential(nn.AvgPool{K: 2}, nn.Flatten{}, nn.NewLinear(r, flat, cfg.FC1)), Cfg: ncfg},
		},
		Readout:    nn.NewLinear(r, cfg.FC1, NumClasses),
		ReadoutCfg: ncfg,
		Mode:       opts.Mode,
		T:          T,
		LogitScale: opts.LogitScale,
	}
	// One definition of a usable (Vth, T, Alpha): the network's own. A NaN
	// threshold would otherwise build, train and checkpoint a silent net.
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return net, nil
}

// DataConfig selects the experiment dataset.
type DataConfig struct {
	// TrainN, TestN are the split sizes.
	TrainN, TestN int
	// ImageSize is the synthetic image side (ignored for real MNIST).
	ImageSize int
	// Seed drives the synthetic generator.
	Seed uint64
}

// LoadData returns normalised train/test splits: real MNIST when
// SNNSEC_MNIST_DIR is set (subsampled to the requested sizes), else
// SynthDigits. This is the substitution point documented in DESIGN.md.
func LoadData(cfg DataConfig) (trainDS, testDS *dataset.Dataset, err error) {
	if dir := os.Getenv(dataset.MNISTDirEnv); dir != "" {
		trainDS, err = dataset.LoadMNISTDir(dir, true)
		if err != nil {
			return nil, nil, err
		}
		testDS, err = dataset.LoadMNISTDir(dir, false)
		if err != nil {
			return nil, nil, err
		}
		if cfg.TrainN > 0 && cfg.TrainN < trainDS.Len() {
			trainDS = trainDS.Subset(0, cfg.TrainN)
		}
		if cfg.TestN > 0 && cfg.TestN < testDS.Len() {
			testDS = testDS.Subset(0, cfg.TestN)
		}
	} else {
		sc := dataset.DefaultSynthConfig(cfg.TrainN, cfg.Seed)
		sc.Size = cfg.ImageSize
		trainDS, err = dataset.SynthDigits(sc)
		if err != nil {
			return nil, nil, err
		}
		sc = dataset.DefaultSynthConfig(cfg.TestN, cfg.Seed+1)
		sc.Size = cfg.ImageSize
		testDS, err = dataset.SynthDigits(sc)
		if err != nil {
			return nil, nil, err
		}
	}
	trainDS.Normalize()
	testDS.Normalize()
	return trainDS, testDS, nil
}
