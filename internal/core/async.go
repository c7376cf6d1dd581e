package core

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/speck"
)

// processAsync is the paper's asynchronous pipeline (Section IV-B,
// Figure 6). For each chunk i in schedule order:
//
//	H2D inputs(i)
//	analysis kernel(i)
//	D2H row info(i)                 <- transfer 1 in Figure 6
//	  host grouping
//	D2H output portion 1 of (i-1)   <- transfer 2, overlaps symbolic(i)
//	symbolic kernels(i)
//	D2H nnz info(i)                 <- transfer 3
//	  host prefix sum, arena offsets assigned
//	D2H output portion 2 of (i-1)   <- transfer 4, overlaps numeric(i)
//	numeric kernels(i)
//
// All D2H transfers are enqueued on one in-order stream, giving exactly
// the Figure 6 ordering on the single device-to-host DMA engine. The
// output region is double buffered: a chunk's numeric phase cannot
// start until the buffer last used two chunks ago has drained to the
// host. No device allocation happens after the initial arena Malloc,
// so nothing ever serializes the device mid-pipeline.
//
// Under fault injection each device operation runs through the chunk's
// retry budget (devOp). A chunk that cannot complete — retries
// exhausted, its allocation misfit, or the device lost — is rolled
// back and recorded as failed, while the previous chunk's two output
// transfers are still enqueued so a healthy predecessor always drains;
// the pipeline then moves on (or, on device loss, fails the rest of
// the schedule). Completion signals fire even for failed stream
// operations, so the final drain never deadlocks.
func (e *Engine) processAsync(p *sim.Proc, ids []int) []int {
	dev := e.Dev
	var failedIDs []int
	fail := func(id int, err error) {
		if _, seen := e.failed[id]; seen {
			return
		}
		e.failChunk(id, err)
		failedIDs = append(failedIDs, id)
	}

	// One arena allocation per engine: failover may route extra chunks
	// through ProcessChunks again, reusing the resident arena.
	arena := dev.UsableBytes()
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
	var arenaUsed int64
	var cache *inputCache
	// reserve takes arena space for working structures, evicting cached
	// input panels (except the pinned current ones) when necessary.
	reserve := func(p *sim.Proc, id int, label string, bytes int64, pinned ...string) error {
		for arenaUsed+bytes > arena-cache.bytes {
			if !cache.evictOne(p, pinned...) {
				return fmt.Errorf("core: chunk %d %s (%d bytes) does not fit the arena (%d used of %d); increase RowPanels/ColPanels: %w",
					id, label, bytes, arenaUsed, arena, faults.ErrOOM)
			}
		}
		arenaUsed += bytes
		return nil
	}

	out := dev.NewStream("d2h-out")

	// Output buffering (the paper double-buffers): slotDone[s] fires
	// when the output occupying slot s has fully reached the host.
	nbuf := e.Opts.OutputBuffers
	slotDone := make([]*sim.Signal, nbuf)
	for s := range slotDone {
		slotDone[s] = &sim.Signal{}
		slotDone[s].Fire(p) // all slots start free
	}
	slotBytes := make([]int64, nbuf)

	type pending struct {
		id     int
		res    *speck.Symbolic
		slot   int
		p1Sent bool
		p2Sent bool
	}
	var prev *pending
	cache = newInputCache(e, false)

	// sendP1 and sendP2 enqueue the previous chunk's two output
	// portions (transfers 2 and 4 of Figure 6). The failure paths call
	// them too, so a healthy previous chunk still drains when the
	// current chunk dies; if the transfer itself fails past its retry
	// budget the previous chunk is the one marked failed, because its
	// output never reached the host.
	sendP1 := func(pr *pending) {
		if pr == nil || pr.p1Sent {
			return
		}
		pr.p1Sent = true
		bytes1 := int64(float64(pr.res.OutputBytes) * e.Opts.SplitFraction)
		out.Enqueue(lbl("output p1", pr.id), func(q *sim.Proc) {
			if err := e.devOp(q, pr.id, func() error {
				return dev.TransferD2H(q, lbl("output p1", pr.id), bytes1)
			}); err != nil {
				fail(pr.id, err)
			}
		})
	}
	sendP2 := func(pr *pending) {
		if pr == nil || pr.p2Sent {
			return
		}
		pr.p2Sent = true
		bytes1 := int64(float64(pr.res.OutputBytes) * e.Opts.SplitFraction)
		bytes2 := pr.res.OutputBytes - bytes1
		done := out.Enqueue(lbl("output p2", pr.id), func(q *sim.Proc) {
			if err := e.devOp(q, pr.id, func() error {
				return dev.TransferD2H(q, lbl("output p2", pr.id), bytes2)
			}); err != nil {
				fail(pr.id, err)
			}
		})
		slotDone[pr.slot] = done
	}

	slotCounter := 0
loop:
	for idx, id := range ids {
		if e.pastDeadline() {
			break
		}
		rp, cp := e.chunkPanels(id)
		res, warm := e.chunkMeta(id)
		e.try(id)
		if res.Flops == 0 {
			// Empty chunk: known from the host-side flop analysis, no
			// device work or transfer required.
			continue
		}
		slot := slotCounter % nbuf
		slotCounter++

		// abort routes a chunk failure: complete the previous chunk's
		// output obligations, roll back this chunk's arena accounting,
		// and either move on (retries exhausted, misfit) or fail the
		// rest of the schedule (device lost). Returns true to stop.
		reservedWS, reservedOut := false, false
		abort := func(err error) bool {
			sendP1(prev)
			sendP2(prev)
			prev = nil
			if reservedOut {
				arenaUsed -= res.OutputBytes
				slotBytes[slot] = 0
			}
			if reservedWS {
				arenaUsed -= res.WorkspaceBytes
			}
			fail(id, err)
			if errors.Is(err, faults.ErrDeviceLost) {
				for _, rest := range ids[idx+1:] {
					fail(rest, fmt.Errorf("core: chunk %d unprocessed: %w", rest, faults.ErrDeviceLost))
				}
				return true
			}
			return false
		}

		// Inputs stay resident between chunks while the arena allows.
		aBytes, bBytes := wireBytes(rp.M), wireBytes(cp.M)
		aKey, bKey := panelKeys(rp, cp)
		capacityLeft := func() int64 { return arena - arenaUsed }
		if err := cache.ensure(p, id, aKey, lbl("A panel", id), aBytes, capacityLeft, aKey, bKey); err != nil {
			if abort(err) {
				break loop
			}
			continue
		}
		if err := cache.ensure(p, id, bKey, lbl("B panel", id), bBytes, capacityLeft, aKey, bKey); err != nil {
			if abort(err) {
				break loop
			}
			continue
		}

		// Row analysis, then its (small) D2H. The previous chunk's
		// output is deliberately NOT transferred yet: the paper gives
		// up overlap during this short stage so the pipeline can keep
		// processing chunk i without waiting on chunk i-1's transfer.
		if err := reserve(p, id, "workspace", res.WorkspaceBytes, aKey, bKey); err != nil {
			if abort(err) {
				break
			}
			continue
		}
		reservedWS = true
		if !warm {
			if err := e.devOp(p, id, func() error {
				return dev.Kernel(p, lbl("analysis", id), res.AnalysisSec)
			}); err != nil {
				if abort(err) {
					break
				}
				continue
			}
			var rowInfoErr error
			rowInfoDone := out.Enqueue(lbl("row info", id), func(q *sim.Proc) {
				rowInfoErr = e.devOp(q, id, func() error {
					return dev.TransferD2H(q, lbl("row info", id), res.RowInfoBytes)
				})
			})
			p.Await(rowInfoDone) // host grouping needs the row analysis
			if rowInfoErr != nil {
				if abort(rowInfoErr) {
					break
				}
				continue
			}
		}

		// Transfer 2: first portion of the previous chunk's output,
		// overlapping this chunk's symbolic phase. A warm chunk has no
		// symbolic phase — its structure came from the plan cache — so
		// the transfer overlaps the numeric phase instead.
		sendP1(prev)
		if !warm {
			if err := e.launchGroupKernels(p, id, res, "symbolic"); err != nil {
				if abort(err) {
					break
				}
				continue
			}

			// Transfer 3: this chunk's symbolic results; the host needs
			// them to assign arena offsets for the output arrays.
			var nnzInfoErr error
			nnzInfoDone := out.Enqueue(lbl("nnz info", id), func(q *sim.Proc) {
				nnzInfoErr = e.devOp(q, id, func() error {
					return dev.TransferD2H(q, lbl("nnz info", id), res.NnzInfoBytes)
				})
			})
			p.Await(nnzInfoDone)
			if nnzInfoErr != nil {
				if abort(nnzInfoErr) {
					break
				}
				continue
			}
		}

		// Transfer 4: remainder of the previous chunk's output,
		// overlapping this chunk's numeric phase. Its completion frees
		// the previous chunk's buffer slot.
		sendP2(prev)

		// Output allocation: wait for this chunk's buffer slot to have
		// drained (two chunks ago), then take arena space for it.
		p.Await(slotDone[slot])
		arenaUsed -= slotBytes[slot]
		slotBytes[slot] = res.OutputBytes
		if err := reserve(p, id, "output", res.OutputBytes, aKey, bKey); err != nil {
			slotBytes[slot] = 0
			if abort(err) {
				break
			}
			continue
		}
		reservedOut = true
		if err := e.launchGroupKernels(p, id, res, "numeric"); err != nil {
			if abort(err) {
				break
			}
			continue
		}
		arenaUsed -= res.WorkspaceBytes

		prev = &pending{id: id, res: res, slot: slot}
	}

	// Drain: transfer the last chunk's output (both portions), then
	// wait for every slot. On a lost device the enqueued attempts fail
	// fast but their completion signals still fire, so the drain never
	// deadlocks.
	sendP1(prev)
	sendP2(prev)
	p.AwaitAll(slotDone...)
	e.endResident = cache.keys()
	return failedIDs
}
