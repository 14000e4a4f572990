package core

// Read-repair (docs/erasure.md §4): the background pushes that restore
// redundancy for pages a read found missing on a provider.

import (
	"context"
	"time"

	"blob/internal/provider"
)

// readRepair is one page to re-push, as rel, to a provider that missed
// it. data may alias the caller's read buffer (or a decode scratch
// buffer) when handed to scheduleReadRepair, which copies it — only for
// repairs it actually schedules — before returning.
type readRepair struct {
	write    uint64
	rel      uint32
	data     []byte
	provider uint32
}

// scheduleReadRepair re-pushes served pages to the providers that
// missed them, in the background and bounded by repairSem — a saturated client
// drops the repairs rather than queueing unboundedly (the repair agent
// or a later read will retry). First-wins idempotent puts make
// duplicate pushes harmless.
func (c *Client) scheduleReadRepair(blob uint64, repairs []readRepair) {
	select {
	case c.repairSem <- struct{}{}:
	default:
		return // saturated: shed this batch
	}
	// Materialize owned copies only now that the batch is definitely
	// going out — a shed batch costs nothing, and pages served straight
	// into the caller's buffer are captured before Read returns and the
	// caller may reuse it.
	for i := range repairs {
		repairs[i].data = append([]byte(nil), repairs[i].data...)
	}
	go func() {
		defer func() { <-c.repairSem }()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// One MPutPages per (provider, write) batch, like the write path.
		type key struct {
			id    uint32
			write uint64
		}
		type batch struct {
			rels  []uint32
			datas [][]byte
		}
		batches := make(map[key]*batch)
		for _, r := range repairs {
			k := key{r.provider, r.write}
			bt := batches[k]
			if bt == nil {
				bt = &batch{}
				batches[k] = bt
			}
			bt.rels = append(bt.rels, r.rel)
			bt.datas = append(bt.datas, r.data)
		}
		for k, bt := range batches {
			addr, err := c.providerAddr(ctx, k.id)
			if err != nil {
				continue // provider gone: the repair agent will handle it
			}
			segs := provider.EncodePutPagesVec(blob, k.write, bt.rels, bt.datas)
			if _, err := c.pool.Go(ctx, addr, provider.MPutPages, segs, nil).Wait(ctx); err == nil {
				c.ReadRepairs.Add(int64(len(bt.rels)))
			}
		}
	}()
}
