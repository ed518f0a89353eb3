package core

import (
	"fmt"
	"strconv"

	"snnsec/internal/modelio"
	"snnsec/internal/nn"
)

// BuildFromCheckpoint reconstructs a trained classifier from checkpoint
// metadata — the same deterministic constructors that produced it, then
// Apply — and returns it together with the per-sample input shape
// ([1,H,W]) the model expects. It is shared by the attack CLI and the
// serve model loader, which must agree on how a checkpoint maps back to
// a network.
func BuildFromCheckpoint(s Scale, m *modelio.Model) (nn.Classifier, []int, error) {
	sample := []int{1, s.Net.ImageSize, s.Net.ImageSize}
	switch m.Meta["model"] {
	case "cnn":
		cnn, err := NewLeNet5CNN(s.Net)
		if err != nil {
			return nil, nil, err
		}
		if err := m.Apply(cnn.Params()); err != nil {
			return nil, nil, err
		}
		return cnn, sample, nil
	case "snn":
		vth, err := strconv.ParseFloat(m.Meta["vth"], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint lacks vth: %w", err)
		}
		T, err := strconv.Atoi(m.Meta["T"])
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint lacks T: %w", err)
		}
		net, err := NewSpikingLeNet5(s.Net, vth, T)
		if err != nil {
			return nil, nil, err
		}
		if err := m.Apply(net.Params()); err != nil {
			return nil, nil, err
		}
		return net, sample, nil
	default:
		return nil, nil, fmt.Errorf("checkpoint has unknown model kind %q", m.Meta["model"])
	}
}
