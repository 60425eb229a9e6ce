package main

import (
	"time"

	"taser/internal/wal"
)

// probeWAL appends events of the workload's feature width to a log in dir
// with the engine's group-commit size and times the appends that only buffer
// and the ones that also sync.
func probeWAL(dir string, feat []float64, events int) (appendUS, syncMSp50 float64, err error) {
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	var buffered time.Duration
	var nBuffered int
	var syncs []float64
	for i := 0; i < events; i++ {
		before := log.Stats().Syncs
		start := time.Now()
		if err := log.Append(int32(i%7), int32(i%11), float64(i), feat); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		if log.Stats().Syncs > before {
			syncs = append(syncs, float64(d)/1e6)
		} else {
			buffered += d
			nBuffered++
		}
	}
	if nBuffered > 0 {
		appendUS = float64(buffered) / 1e3 / float64(nBuffered)
	}
	return appendUS, median(syncs), nil
}
