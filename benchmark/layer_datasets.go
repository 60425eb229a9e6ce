package main

import (
	"fmt"

	"taser/internal/datasets"
)

// generateDataset is the benchmark's only call into internal/datasets: the
// generator also builds the dataset's T-CSR and features.
func generateDataset(name string, scale float64, seed uint64) (*datasets.Dataset, error) {
	ds, ok := datasets.ByName(name, scale, seed)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	return ds, nil
}
