package main

// sizes are a workload's input sizes and load shape. The benchmark runs
// at defaultSizes; the self-test shrinks them.
type sizes struct {
	n, d           int // batch input points and attributes
	datasets       int // batch inputs per run, each made from the run's seed
	nodes, workers int // modelled nodes (2×nodes partitions) and engine workers
	setups         int // set-up repetitions; setup_s is their median

	// serve
	services    int     // initial catalogue size
	rate        float64 // open-loop offered ops/s
	popular     int     // popular ceilings, the unconstrained read included
	freshPct    int     // reads per 100 ops under a never-seen ceiling
	publishPct  int     // publishes per 100 ops
	enterEvery  int     // every enterEvery-th publish enters the skyline
	publishPool int     // distinct fresh services available to publish
	checkFresh  int     // fresh ceilings checked after the window
}

func defaultSizes(workload string) sizes {
	sz := sizes{
		d: 6, nodes: 4, workers: 2, setups: 5,
		services: 100_000, rate: 100, popular: 8,
		freshPct: 2, publishPct: 8, enterEvery: 32, publishPool: 20_000, checkFresh: 4,
	}
	switch workload {
	case "qws":
		sz.n, sz.datasets = 1_000_000, 2
	case "anti":
		sz.n, sz.datasets = 100_000, 8 // anti-correlated skyline sizes vary most between inputs
	default:
		sz.n, sz.datasets = 100_000, 4
	}
	return sz
}
