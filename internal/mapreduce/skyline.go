package mapreduce

import (
	"repro/internal/points"
	"repro/internal/skyline"
)

// Skyline adapters: the combiner and fold shapes every skyline job
// shares, in-process and on rpcmr workers alike.

// KernelCombiner folds each map-side block to its kernel output before
// the frame is sealed — the paper's local-skyline combiner.
func KernelCombiner(kernel skyline.BlockFunc) FrameCombiner {
	return func(partition int, blk *points.Block) (*points.Block, error) {
		return kernel(blk), nil
	}
}

// KernelFolder returns a FrameFolder whose folds assemble each
// partition's frames into one block and run kernel over it at Finish,
// emitting the output under the partition's own id — the reducer of the
// paper's jobs. Each fold reports its assembled block as its resident
// bytes.
func KernelFolder(kernel skyline.BlockFunc) FrameFolder {
	return func(partition int) FrameFold {
		return &kernelFold{partition: partition, kernel: kernel, blk: points.NewBlock(0, 0)}
	}
}

// kernelFold is KernelFolder's assembling fold.
type kernelFold struct {
	partition int
	kernel    skyline.BlockFunc
	blk       *points.Block
}

func (k *kernelFold) Absorb(blk *points.Block) error {
	k.blk.AppendBlock(blk)
	return nil
}

func (k *kernelFold) Finish(emit EmitPoint) error {
	out := k.kernel(k.blk)
	for i := 0; i < out.Len(); i++ {
		emit(k.partition, out.Row(i))
	}
	return nil
}

func (k *kernelFold) PeakBytes() int64 { return int64(k.blk.Len()) * int64(k.blk.Dim()) * 8 }
func (k *kernelFold) Passes() int      { return 1 }

// budgetedFrameFold adapts skyline.BudgetedFold to FrameFold, surfacing
// its peak/pass stats through FoldPeaker.
type budgetedFrameFold struct {
	partition int
	fold      *skyline.BudgetedFold
}

func (b *budgetedFrameFold) Absorb(blk *points.Block) error { return b.fold.Absorb(blk) }

func (b *budgetedFrameFold) Finish(emit EmitPoint) error {
	out, err := b.fold.Finish()
	if err != nil {
		return err
	}
	for i := 0; i < out.Len(); i++ {
		emit(b.partition, out.Row(i))
	}
	return nil
}

func (b *budgetedFrameFold) PeakBytes() int64 { return b.fold.Stats().PeakBytes }
func (b *budgetedFrameFold) Passes() int      { return b.fold.Stats().Passes }

// BudgetedFolder returns a FrameFolder whose folds compute each
// partition's skyline in roughly budgetBytes of window memory, spilling
// overflow frames to spillDir (the process temp dir when empty) and
// multi-passing when a local skyline outgrows the window.
func BudgetedFolder(dim int, budgetBytes int64, spillDir string, codec points.FrameCodec) FrameFolder {
	return func(partition int) FrameFold {
		return &budgetedFrameFold{partition: partition,
			fold: skyline.NewBudgetedFold(dim, budgetBytes, spillDir, codec)}
	}
}
