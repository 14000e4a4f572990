package provider

// Chaos injection for real-TCP deployments (docs/robustness.md): a
// provider can be told, live via the MChaos RPC (blobctl chaos), to hold
// every read-side serve (page gets and holdings listings) for a fixed
// delay, or to stall them outright. Writes stay healthy, so no acked data is ever
// endangered, and the process stays alive, registered and
// heartbeating: nothing upstream sees a crash. It is the gray failure
// the deadline/hedge/breaker machinery exists to absorb, injected on
// demand for acceptance runs. The netsim fabric has its own,
// finer-grained fault injection (netsim.Fault); this path is for
// deployments made of real processes.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blob/internal/rpc"
	"blob/internal/wire"
)

// MChaos sets or clears the provider's chaos mode at runtime.
//
//	request:  u64 delay nanoseconds | u8 stall (0/1)
//	response: empty
const MChaos = 0x0309

func init() {
	rpc.RegisterMethodName(MChaos, "provider.MChaos")
}

// chaos is a Service's injected-fault state. Reads are frequent (every
// page serve) and writes are rare (operator actions), hence RWMutex.
type chaos struct {
	mu    sync.RWMutex
	delay time.Duration
	stall chan struct{} // non-nil while stalled; closed on heal
}

// SetChaos installs (or, with 0/false, clears) the service's chaos
// mode: every subsequent read-side serve sleeps delay, and while stall
// is set it blocks outright until the mode changes or the caller's
// propagated deadline expires.
func (sv *Service) SetChaos(delay time.Duration, stall bool) {
	sv.chaos.mu.Lock()
	sv.chaos.delay = delay
	if stall && sv.chaos.stall == nil {
		sv.chaos.stall = make(chan struct{})
	} else if !stall && sv.chaos.stall != nil {
		close(sv.chaos.stall)
		sv.chaos.stall = nil
	}
	sv.chaos.mu.Unlock()
}

// Chaos reports the current chaos mode.
func (sv *Service) Chaos() (delay time.Duration, stall bool) {
	sv.chaos.mu.RLock()
	defer sv.chaos.mu.RUnlock()
	return sv.chaos.delay, sv.chaos.stall != nil
}

// chaosEnter applies the current chaos mode to one page serve. It
// returns ctx.Err() when the caller's deadline expires mid-stall — the
// wire deadline (docs/robustness.md) reaches handlers through ctx, so
// stalled work is shed exactly like any other expired work.
func (sv *Service) chaosEnter(ctx context.Context) error {
	sv.chaos.mu.RLock()
	delay, stall := sv.chaos.delay, sv.chaos.stall
	sv.chaos.mu.RUnlock()
	if stall != nil {
		select {
		case <-stall: // healed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// EncodeChaos builds an MChaos request body.
func EncodeChaos(delay time.Duration, stall bool) []byte {
	w := wire.NewWriter(9)
	w.Uint64(uint64(delay))
	if stall {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
	return w.Bytes()
}

// DecodeChaos parses an MChaos request body.
func DecodeChaos(body []byte) (delay time.Duration, stall bool, err error) {
	r := wire.NewReader(body)
	delay = time.Duration(r.Uint64())
	stall = r.Uint8() != 0
	if err := r.Err(); err != nil {
		return 0, false, fmt.Errorf("provider chaos: %w", err)
	}
	return delay, stall, nil
}

func (sv *Service) handleChaos(_ context.Context, body []byte) ([]byte, error) {
	delay, stall, err := DecodeChaos(body)
	if err != nil {
		return nil, err
	}
	sv.SetChaos(delay, stall)
	return nil, nil
}
