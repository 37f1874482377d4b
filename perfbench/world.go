package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"streach"
	"streach/internal/experiments"
)

// worldConfig is the world `streach serve` builds by default: a 12×12 km
// city re-segmented at 500 m, 150 taxis × 30 days, world seed 7. The
// world never depends on --seed; only the inputs drawn from it do.
func worldConfig() experiments.Config {
	return experiments.Config{
		CityRows: 12, CityCols: 12,
		SpacingMeters:   1000,
		ResegmentMeters: 500,
		Taxis:           150,
		Days:            30,
		Seed:            7,
	}
}

// slotSeconds is the index granularity Δt.
const slotSeconds = 300

// buildSystem builds the world and indexes it with the default
// IndexConfig (1024-page buffer pool, 8192-list decoded cache, 32-plan
// cache). It is the "setup" every workload times.
func buildSystem() (*experiments.World, *streach.System, error) {
	w, err := experiments.BuildWorld(worldConfig())
	if err != nil {
		return nil, nil, err
	}
	sys, err := streach.NewSystemFromData(w.Net, w.DS, streach.DefaultIndexConfig())
	if err != nil {
		return nil, nil, err
	}
	return w, sys, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// timedSetups runs setup setupRepeats times, releasing every result but
// the last, and returns the last result with the median duration. each,
// when set, runs untimed on every fresh result before it is released.
func timedSetups[T any](setup func() (T, error), release func(T), each func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		freeMemory()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if each != nil {
			if err := each(v); err != nil {
				release(v)
				return last, 0, err
			}
		}
		if i < setupRepeats-1 {
			release(v)
		} else {
			last = v
		}
	}
	return last, median(secs), nil
}

// settle collects garbage before a timed phase, so every phase starts
// from the same heap state instead of wherever the previous phase left
// the collector.
func settle() { runtime.GC() }

// freeMemory returns the previous setup's heap so repeated setups do not
// stack up in the process's resident set.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
