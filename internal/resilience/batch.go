package resilience

import (
	"errors"
	"fmt"

	"godosn/internal/overlay"
)

// This file is the pipelined multi-key path through the resilience layer.
// A batch is one logical operation: the admission gate is charged once (a
// feed read of 200 keys is one user action, not 200), duplicate keys are
// collapsed before any message is sent (Zipf workloads repeat hot keys
// within a single batch), the verified-value cache absorbs keys it already
// holds, and the remainder rides the overlay's route-grouped batch
// transport. Faults stay per-key: a corrupt value, an unreachable replica
// group, or a shed probe condemns only its own slot — the affected keys
// are rescued one at a time through the full single-key resilient pipeline
// (hedged, breaker-steered, retried), while every other key's result
// stands. Fallbacks run in key order so retry jitter draws from the seeded
// RNG deterministically.
//
// Without a batch-capable overlay the decorator still satisfies
// overlay.BatchKV: every key takes the single-key path (admission still
// charged once), so callers can program against batches unconditionally.

var _ overlay.BatchKV = (*KV)(nil)

// recordBatch merges one batch's accounting into the metrics.
func (k *KV) recordBatch(nkeys, fallbacks int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.metrics.Batches++
	k.metrics.BatchKeys += nkeys
	k.metrics.BatchFallbacks += fallbacks
	if t := k.tel; t != nil {
		t.batches.Inc()
		t.batchKeys.Add(int64(nkeys))
		t.batchFalls.Add(int64(fallbacks))
	}
}

// PutBatch implements overlay.BatchKV. The batch is admitted as one
// operation, written through the overlay's shared-envelope transport, and
// any key whose replica group failed is retried through the single-key
// store path (idempotent, so ack-lost keys are safe to re-store). Every
// key's cached value is invalidated — even a failed write may have landed.
func (k *KV) PutBatch(origin string, keys []string, values [][]byte) ([]error, overlay.OpStats, error) {
	if len(keys) != len(values) {
		return nil, overlay.OpStats{}, fmt.Errorf("resilience: PutBatch: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	var total overlay.OpStats
	if err := k.admitOp(nil, &total); err != nil {
		return nil, total, err
	}
	errs := make([]error, len(keys))
	if k.batch != nil {
		berrs, st, err := k.batch.PutBatch(origin, keys, values)
		total.Add(st)
		if err != nil {
			return nil, total, err
		}
		copy(errs, berrs)
	} else {
		for i := range keys {
			errs[i] = overlay.ErrUnavailable // rescued below, key by key
		}
	}
	for _, key := range keys {
		k.values.Invalidate(key)
	}
	fallbacks := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		fallbacks++
		errs[i] = k.storeRetry(nil, origin, keys[i], values[i], &total)
	}
	if k.batch == nil {
		fallbacks = 0 // the loop was the transport, not a rescue
	}
	k.recordBatch(len(keys), fallbacks)
	return errs, total, nil
}

// GetBatch implements overlay.BatchKV. One admission charge covers the
// batch; duplicate keys collapse to one resolution; cached verified values
// are served without a message; the remainder is fetched through the
// overlay's batch transport and verified key by key. A key whose bytes
// fail verification — or whose replica group was unreachable — falls back
// to the single-key hedged lookup, which attributes the fault to the
// serving replica (its health record) and steers the retry
// elsewhere. A clean miss (every replica answered not-found) is
// definitive and never retried.
func (k *KV) GetBatch(origin string, keys []string) ([]overlay.BatchResult, overlay.OpStats, error) {
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	var total overlay.OpStats
	if err := k.admitOp(nil, &total); err != nil {
		return nil, total, err
	}
	results := make([]overlay.BatchResult, len(keys))
	// Collapse duplicates: one resolution per distinct key, written to the
	// key's first position and copied to its repeats at the end.
	first := make(map[string]int, len(keys))
	uniq := make([]string, 0, len(keys))
	for i, key := range keys {
		if _, seen := first[key]; !seen {
			first[key] = i
			uniq = append(uniq, key)
		}
	}
	// Cache pass: keys the verified-value cache holds cost nothing.
	need := uniq[:0]
	for _, key := range uniq {
		if v, ok := k.values.Get(key); ok {
			// The cache owns its backing array; hand out one private copy
			// shared by this key's slots.
			results[first[key]] = overlay.BatchResult{Value: append([]byte(nil), v...)}
			continue
		}
		need = append(need, key)
	}
	// Batch transport pass, then per-key verification.
	fallback := need[:0:0]
	if k.batch != nil && len(need) > 0 {
		brs, st, err := k.batch.GetBatch(origin, need)
		total.Add(st)
		if err != nil {
			return nil, total, err
		}
		for j, key := range need {
			r := brs[j]
			if r.Err == nil {
				if verr := k.verifyValue(key, r.Value); verr != nil {
					r = overlay.BatchResult{Err: verr}
				}
			}
			switch {
			case r.Err == nil:
				if k.values != nil { // copy only for a live cache
					k.values.Put(key, append([]byte(nil), r.Value...))
				}
				results[first[key]] = r
			case errors.Is(r.Err, overlay.ErrNotFound):
				// Every replica in the group answered: a definitive miss.
				results[first[key]] = r
			default:
				fallback = append(fallback, key)
			}
		}
	} else {
		fallback = need
	}
	// Rescue pass: each faulted key takes the full single-key resilient
	// path, in key order so the seeded retry jitter is deterministic.
	for _, key := range fallback {
		v, err := k.lookupRetry(nil, origin, key, &total)
		if err != nil {
			results[first[key]] = overlay.BatchResult{Err: err}
			continue
		}
		if k.values != nil {
			k.values.Put(key, append([]byte(nil), v...))
		}
		results[first[key]] = overlay.BatchResult{Value: v}
	}
	if len(first) < len(keys) {
		for i, key := range keys {
			results[i] = results[first[key]]
		}
	}
	rescued := len(fallback)
	if k.batch == nil {
		rescued = 0 // the loop was the transport, not a rescue
	}
	k.recordBatch(len(keys), rescued)
	return results, total, nil
}
