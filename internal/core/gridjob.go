package core

import (
	"encoding/json"
	"fmt"

	"snnsec/internal/dataset"
	"snnsec/internal/grid"
)

// The grid engine ships a job to its workers (goroutines or processes)
// as a JSON spec that the coordinator and every worker rebuild with the
// same grid.BuildJob. A Scale is fully serialisable (plain fields, and
// encoding/json round-trips float64 exactly), so it IS the spec:
// BuildGridJob rebuilds the identical explore configuration and datasets
// from it, which makes a run at any shard count bit-identical to
// explore.Run over GridConfig.

// BuildGridJob is the grid.BuildJob that interprets a serialised Scale;
// the CLI hands it to both grid.Run and grid.ServeWorker.
func BuildGridJob(raw json.RawMessage) (grid.Job, error) {
	var s Scale
	if err := json.Unmarshal(raw, &s); err != nil {
		return grid.Job{}, fmt.Errorf("core: decoding scale spec: %w", err)
	}
	return grid.Job{
		Config: s.GridConfig(),
		Data: func() (*dataset.Dataset, *dataset.Dataset, error) {
			return LoadData(s.Data)
		},
	}, nil
}
