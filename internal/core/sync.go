package core

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/speck"
)

// panelKeys identify panels in the input cache.
func panelKeys(rp partition.RowPanel, cp partition.ColPanel) (aKey, bKey string) {
	return fmt.Sprintf("A%d", rp.Start), fmt.Sprintf("B%d", cp.Start)
}

// processSync is the synchronous partitioned-spECK baseline
// (Section IV-A): every phase of every chunk, including the output
// transfer, runs back to back on a single stream. With
// Opts.DynamicAlloc it also performs spECK's per-phase device
// allocations; otherwise a single arena allocation is made up front.
// Input panels stay resident between chunks while memory allows.
//
// Failure semantics mirror the asynchronous pipeline: a chunk whose
// retries are exhausted or whose allocations misfit is recorded as
// failed and the loop moves on; a lost device fails the rest of the
// schedule.
func (e *Engine) processSync(p *sim.Proc, ids []int) []int {
	dev := e.Dev
	cache := newInputCache(e, e.Opts.DynamicAlloc)
	var failedIDs []int
	fail := func(id int, err error) {
		if _, seen := e.failed[id]; seen {
			return
		}
		e.failChunk(id, err)
		failedIDs = append(failedIDs, id)
	}

	var arena, arenaUsed int64
	if !e.Opts.DynamicAlloc {
		arena = dev.UsableBytes()
		if !e.arenaAllocated {
			a, err := dev.Malloc(p, "arena", arena)
			if err != nil {
				for _, id := range ids {
					fail(id, err)
				}
				return failedIDs
			}
			e.trackAlloc(a)
			e.arenaAllocated = true
		}
	}

	for idx, id := range ids {
		if e.pastDeadline() {
			break
		}
		rp, cp := e.chunkPanels(id)
		res, warm := e.chunkMeta(id)
		if err := e.compute(id, 1); err != nil {
			e.fail(err) // host-side arithmetic failure is terminal
			break
		}
		if res.Flops == 0 {
			// The host already knows the chunk is empty from the flop
			// analysis (Algorithm 4's GetFlops); no device work needed.
			continue
		}
		// abort routes a chunk failure; returns true on device loss,
		// which fails the rest of the schedule and stops the loop.
		abort := func(err error) bool {
			fail(id, err)
			if errors.Is(err, faults.ErrDeviceLost) {
				for _, rest := range ids[idx+1:] {
					fail(rest, fmt.Errorf("core: chunk %d unprocessed: %w", rest, faults.ErrDeviceLost))
				}
				return true
			}
			return false
		}

		aBytes, bBytes := rp.M.Bytes(), cp.M.Bytes()
		aKey, bKey := panelKeys(rp, cp)
		capacityLeft := func() int64 { return arena - arenaUsed }
		if err := cache.ensure(p, id, aKey, lbl("A panel", id), aBytes, capacityLeft, aKey, bKey); err != nil {
			if abort(err) {
				break
			}
			continue
		}
		if err := cache.ensure(p, id, bKey, lbl("B panel", id), bBytes, capacityLeft, aKey, bKey); err != nil {
			if abort(err) {
				break
			}
			continue
		}

		var chunkErr error
		if e.Opts.DynamicAlloc {
			chunkErr = e.syncChunkDynamic(p, id, res)
		} else {
			arenaUsed = 0
			need := res.WorkspaceBytes + res.OutputBytes
			misfit := false
			for arenaUsed+need > arena-cache.bytes {
				if !cache.evictOne(p, aKey, bKey) {
					chunkErr = fmt.Errorf("core: chunk %d needs %d bytes beyond the arena; increase RowPanels/ColPanels: %w",
						id, need, faults.ErrOOM)
					misfit = true
					break
				}
			}
			if !misfit {
				arenaUsed += need
				chunkErr = e.syncChunkPrealloc(p, id, res, warm)
			}
		}
		if chunkErr != nil {
			if abort(chunkErr) {
				break
			}
			continue
		}
		if e.err != nil {
			return failedIDs
		}
	}
	e.endResident = cache.keys()
	return failedIDs
}

// syncChunkPrealloc runs one chunk's phases serially without device
// allocations; the input panels are already resident. Each device
// operation runs under the chunk's retry budget. A warm chunk (its
// symbolic structure served from the plan cache) skips the analysis
// and symbolic kernels and their info transfers: only numeric kernels
// and the output transfer touch the device.
func (e *Engine) syncChunkPrealloc(p *sim.Proc, id int, res *speck.Symbolic, warm bool) error {
	dev := e.Dev
	if !warm {
		if err := e.devOp(p, id, func() error {
			return dev.Kernel(p, lbl("analysis", id), res.AnalysisSec)
		}); err != nil {
			return err
		}
		if err := e.devOp(p, id, func() error {
			return dev.TransferD2H(p, lbl("row info", id), res.RowInfoBytes)
		}); err != nil {
			return err
		}
		if err := e.launchGroupKernels(p, id, res, "symbolic"); err != nil {
			return err
		}
		if err := e.devOp(p, id, func() error {
			return dev.TransferD2H(p, lbl("nnz info", id), res.NnzInfoBytes)
		}); err != nil {
			return err
		}
	}
	if err := e.launchGroupKernels(p, id, res, "numeric"); err != nil {
		return err
	}
	return e.devOp(p, id, func() error {
		return dev.TransferD2H(p, lbl("output", id), res.OutputBytes)
	})
}

// syncChunkDynamic runs one chunk with spECK's dynamic allocations:
// row info, group info and the output arrays are each a separate
// device Malloc, freed at chunk end. Every Malloc stalls the device,
// which is harmless here (nothing overlaps anyway) but models why this
// variant cannot be made asynchronous. On failure the allocations made
// so far are still freed, so an abandoned chunk leaks no device
// memory.
func (e *Engine) syncChunkDynamic(p *sim.Proc, id int, res *speck.Symbolic) (err error) {
	dev := e.Dev
	var held []*gpusim.Alloc
	defer func() {
		for _, a := range held {
			if ferr := dev.Free(p, a); ferr != nil {
				// A failing Free is a lifetime bug, not a device fault;
				// surface it as terminal.
				e.fail(ferr)
			}
		}
	}()
	alloc := func(label string, bytes int64) error {
		a, aerr := dev.Malloc(p, lbl(label, id), bytes)
		if aerr != nil {
			return aerr
		}
		held = append(held, a)
		return nil
	}

	if err := alloc("row info", res.RowInfoBytes); err != nil {
		return err
	}
	if err := e.devOp(p, id, func() error {
		return dev.Kernel(p, lbl("analysis", id), res.AnalysisSec)
	}); err != nil {
		return err
	}
	if err := e.devOp(p, id, func() error {
		return dev.TransferD2H(p, lbl("row info", id), res.RowInfoBytes)
	}); err != nil {
		return err
	}

	if err := alloc("group info", int64(len(res.Groups))*64+res.WorkspaceBytes); err != nil {
		return err
	}
	if err := e.launchGroupKernels(p, id, res, "symbolic"); err != nil {
		return err
	}
	if err := e.devOp(p, id, func() error {
		return dev.TransferD2H(p, lbl("nnz info", id), res.NnzInfoBytes)
	}); err != nil {
		return err
	}

	if err := alloc("output", res.OutputBytes); err != nil {
		return err
	}
	if err := e.launchGroupKernels(p, id, res, "numeric"); err != nil {
		return err
	}
	return e.devOp(p, id, func() error {
		return dev.TransferD2H(p, lbl("output", id), res.OutputBytes)
	})
}

// launchGroupKernels launches one kernel per row group, splitting the
// phase duration across groups in proportion to their flops (spECK
// launches a kernel per group; Figure 3's symbolic/numeric boxes).
func (e *Engine) launchGroupKernels(p *sim.Proc, id int, res *speck.Symbolic, phase string) error {
	total := res.NumericSec
	if phase == "symbolic" {
		total = res.SymbolicSec
	}
	if res.Flops == 0 || total == 0 {
		return nil
	}
	for gi, g := range res.Groups {
		frac := float64(g.Flops) / float64(res.Flops)
		label := fmt.Sprintf("%s c%d g%d(%s)", phase, id, gi, g.Kind)
		dur := total * frac
		if err := e.devOp(p, id, func() error {
			return e.Dev.Kernel(p, label, dur)
		}); err != nil {
			return err
		}
	}
	return nil
}

func lbl(what string, id int) string {
	return fmt.Sprintf("%s c%d", what, id)
}
