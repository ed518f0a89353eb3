// Package analysis provides diagnostics that explain *why* the structural
// parameters condition SNN robustness: spiking-activity profiles across
// the (Vth, T) plane, input-gradient magnitude statistics (the
// gradient-masking effect of sharp surrogates and short windows), and
// logit-margin statistics. The paper reports the phenomena; this package
// measures their mechanism.
package analysis

import (
	"fmt"
	"io"
	"math"
	"sort"

	"snnsec/internal/attack"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// ActivityProfile summarises the spiking behaviour of a network on a
// batch of inputs.
type ActivityProfile struct {
	// LayerRates[l] is the mean firing probability of hidden layer l.
	LayerRates []float64
	// OutputRate is the mean readout activity.
	OutputRate float64
	// MeanRate averages LayerRates.
	MeanRate float64
	// SilentFraction is the fraction of hidden layers with a rate below
	// 1e-6 — a direct detector of the paper's "silent network" corner.
	SilentFraction float64
}

// Activity runs one recorded forward pass and extracts the profile.
func Activity(net *snn.Network, x *tensor.Tensor) ActivityProfile {
	rec := &snn.Trace{}
	old := net.Record
	net.Record = rec
	defer func() { net.Record = old }()
	train.Predict(net, x) // one evaluation forward; only the trace is read
	p := ActivityProfile{
		LayerRates: append([]float64(nil), rec.SpikeRates...),
		OutputRate: rec.OutputRate,
	}
	silent := 0
	var sum float64
	for _, r := range p.LayerRates {
		sum += r
		if r < 1e-6 {
			silent++
		}
	}
	if len(p.LayerRates) > 0 {
		p.MeanRate = sum / float64(len(p.LayerRates))
		p.SilentFraction = float64(silent) / float64(len(p.LayerRates))
	}
	return p
}

// GradientStats quantifies the white-box attack surface: the statistics
// of |∂L/∂x| over a batch. Small gradients mean PGD receives little
// signal — the obfuscation mechanism behind much of the measured SNN
// "robustness" (and behind its dependence on the surrogate sharpness and
// on T).
type GradientStats struct {
	MeanAbs   float64
	MaxAbs    float64
	MedianAbs float64
	// ZeroFraction is the fraction of input pixels with exactly zero
	// gradient.
	ZeroFraction float64
}

// InputGradients computes GradientStats for a model on a labelled batch.
func InputGradients(model nn.Classifier, x *tensor.Tensor, y []int) GradientStats {
	g := attack.InputGradient(model, x, y)
	abs := make([]float64, g.Len())
	zero := 0
	var sum, max float64
	for i, v := range g.Data() {
		a := math.Abs(v)
		abs[i] = a
		sum += a
		if a > max {
			max = a
		}
		if v == 0 {
			zero++
		}
	}
	sort.Float64s(abs)
	med := abs[len(abs)/2]
	return GradientStats{
		MeanAbs:      sum / float64(len(abs)),
		MaxAbs:       max,
		MedianAbs:    med,
		ZeroFraction: float64(zero) / float64(len(abs)),
	}
}

// VthSweepRow is one row of a threshold sweep report.
type VthSweepRow struct {
	Vth      float64
	Profile  ActivityProfile
	Gradient GradientStats
}

// SweepVth measures activity and gradient statistics of the same trained
// network evaluated at different inference thresholds (without
// retraining), isolating the direct effect of Vth on the attack surface.
func SweepVth(net *snn.Network, ds *dataset.Dataset, vths []float64, batch int) []VthSweepRow {
	orig := make([]float64, len(net.Hidden))
	for i := range net.Hidden {
		orig[i] = net.Hidden[i].Cfg.Vth
	}
	origOut := net.ReadoutCfg.Vth
	defer func() {
		for i := range net.Hidden {
			net.Hidden[i].Cfg.Vth = orig[i]
		}
		net.ReadoutCfg.Vth = origOut
	}()

	b := ds.Batches(batch)[0]
	rows := make([]VthSweepRow, 0, len(vths))
	for _, v := range vths {
		net.SetVth(v)
		rows = append(rows, VthSweepRow{
			Vth:      v,
			Profile:  Activity(net, b.X),
			Gradient: InputGradients(net, b.X, b.Y),
		})
	}
	return rows
}

// WriteVthSweep renders a threshold sweep as an aligned table.
func WriteVthSweep(w io.Writer, rows []VthSweepRow) {
	fmt.Fprintf(w, "%8s %12s %12s %14s %14s\n", "Vth", "mean_rate", "out_rate", "grad_mean", "grad_zero_frac")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.3g %12.4f %12.4f %14.3e %14.3f\n",
			r.Vth, r.Profile.MeanRate, r.Profile.OutputRate, r.Gradient.MeanAbs, r.Gradient.ZeroFraction)
	}
}
