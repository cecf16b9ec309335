package skyjob

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
)

// Distributed k-skyband job names.
const (
	SkybandPartitionJobName = "skyline/skyband-partition"
	SkybandMergeJobName     = "skyline/skyband-merge"
)

// skybandSpec extends Spec with the band width K.
type skybandSpec struct {
	Spec
	K int `json:"k"`
}

func init() {
	rpcmr.RegisterJob(SkybandPartitionJobName, newSkybandPartitionJob)
	rpcmr.RegisterJob(SkybandMergeJobName, newSkybandMergeJob)
}

// bandFolder keeps, per partition, the points with fewer than k
// dominators within that partition.
func bandFolder(k int) mapreduce.FrameFolder {
	return mapreduce.KernelFolder(skyline.BlockFuncOf(func(s points.Set) points.Set {
		band, _ := skyline.Skyband(s, k) // the job factories reject k < 1
		return band
	}))
}

func parseSkybandSpec(params []byte) (skybandSpec, error) {
	var spec skybandSpec
	if err := json.Unmarshal(params, &spec); err != nil {
		return spec, fmt.Errorf("skyjob: bad skyband params: %w", err)
	}
	if spec.K < 1 {
		return spec, fmt.Errorf("skyjob: skyband k = %d, need >= 1", spec.K)
	}
	return spec, nil
}

func newSkybandPartitionJob(params []byte) (rpcmr.Job, error) {
	spec, err := parseSkybandSpec(params)
	if err != nil {
		return rpcmr.Job{}, err
	}
	part, err := spec.Build()
	if err != nil {
		return rpcmr.Job{}, err
	}
	// No combiner: the local band must see the whole partition; a
	// per-map-task band would be sound but redundant (see the in-process
	// driver's skyband for the argument).
	return rpcmr.Job{BlockMapper: assignMapper(part), FrameFolder: bandFolder(spec.K)}, nil
}

func newSkybandMergeJob(params []byte) (rpcmr.Job, error) {
	spec, err := parseSkybandSpec(params)
	if err != nil {
		return rpcmr.Job{}, err
	}
	return rpcmr.Job{BlockMapper: globalMapper, FrameFolder: bandFolder(spec.K)}, nil
}

// ComputeSkyband runs the distributed two-job k-skyband on a live cluster.
func ComputeSkyband(ctx context.Context, master *rpcmr.Master, data points.Set, scheme partition.Scheme, k, partitions, reducers int) (points.Set, error) {
	if k < 1 {
		return nil, fmt.Errorf("skyjob: skyband k = %d, need >= 1", k)
	}
	base, err := SpecFor(data, scheme, partitions)
	if err != nil {
		return nil, err
	}
	params, err := json.Marshal(skybandSpec{Spec: base, K: k})
	if err != nil {
		return nil, err
	}
	input, ok := points.BlockOf(data)
	if !ok {
		return nil, fmt.Errorf("skyjob: input mixes dimensionalities")
	}
	res1, err := master.Run(ctx, rpcmr.JobSpec{Name: SkybandPartitionJobName, Params: params, Reducers: reducers}, input)
	if err != nil {
		return nil, fmt.Errorf("skyjob: skyband partitioning job: %w", err)
	}
	res2, err := master.Run(ctx, rpcmr.JobSpec{Name: SkybandMergeJobName, Params: params, Reducers: 1}, concatRows(res1.Blocks))
	if err != nil {
		return nil, fmt.Errorf("skyjob: skyband merging job: %w", err)
	}
	var band points.Set
	if blk := res2.Blocks[0]; blk != nil {
		band = blk.ToSet()
	}
	return band, nil
}
