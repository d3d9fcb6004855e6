package scrub

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"godosn/internal/crypto/merkle"
	"godosn/internal/overlay"
	"godosn/internal/parallel"
	"godosn/internal/resilience"
	"godosn/internal/telemetry"
)

// Config parameterizes a Scrubber.
type Config struct {
	// Origin is the node the scrubber's reads and repairs originate at.
	Origin string
	// Verify condemns a copy (defaults to Check — sealed-record
	// verification). Swap in a signed-chain verifier to scrub timelines.
	Verify resilience.VerifyFunc
	// Workers bounds concurrent replica-set groups in flight (<= 1 serial).
	// On a lossy network, worker counts > 1 make the assignment of seeded
	// drops to individual messages scheduling-dependent; seeded experiments
	// keep the serial default.
	Workers int
	// Repair pushes the verified canonical copy over condemned or missing
	// replicas (requires the overlay to implement overlay.RepairKV).
	Repair bool
	// Recheck re-fetches a condemned copy once before issuing a corruption
	// verdict, so one-off wire corruption is not blamed on the node. The
	// refetch is charged to the report's stats.
	Recheck bool
	// PerKey forces the per-key maintenance RPC path (one digest exchange
	// per group, one fetch per key per replica, one repair push per copy)
	// even when the overlay implements the batched contracts
	// (overlay.BatchRepairKV / overlay.BatchDigestKV) — the measured
	// baseline for E26 and an escape hatch.
	PerKey bool
}

// DefaultConfig scrubs serially from origin with record verification,
// repair, and recheck enabled.
func DefaultConfig(origin string) Config {
	return Config{Origin: origin, Verify: Check, Workers: 1, Repair: true, Recheck: true}
}

// Report summarizes one scrub pass.
type Report struct {
	// KeysScanned is the number of distinct keys examined.
	KeysScanned int
	// Groups is the number of replica-set groups the keys resolved into.
	Groups int
	// DigestClean is the number of groups short-circuited because every
	// replica returned the same Merkle digest over the group's keys.
	DigestClean int
	// KeysCompared is the number of keys drilled into (full value fetch).
	KeysCompared int
	// CleanKeys is the number of drilled keys whose copies all verified
	// and agreed.
	CleanKeys int
	// DivergentKeys is the number of drilled keys with at least one
	// condemned or missing copy.
	DivergentKeys int
	// CorruptCopies is the number of copies condemned (failed verification
	// or diverged from the verified canonical value, surviving recheck).
	CorruptCopies int
	// MissingCopies is the number of replicas that answered not-found.
	MissingCopies int
	// RepairedWrites is the number of copies overwritten with the
	// canonical value (successful repair pushes).
	RepairedWrites int
	// RepairWriteFailures is the number of repair pushes that failed in
	// flight (left for the next pass).
	RepairWriteFailures int
	// UnreachableHolders is the number of replica contacts that failed
	// with a delivery error during drill-down — the copy's state is
	// unknown, and liveness is the healer's job, not the scrubber's.
	UnreachableHolders int
	// Repaired mirrors RepairedWrites — kept as a thin view for callers
	// of the pre-split accounting.
	Repaired int
	// Unrepairable mirrors RepairWriteFailures — kept as a thin view for
	// callers of the pre-split accounting.
	Unrepairable int
	// Failed is the number of keys that could not be scrubbed: replica
	// resolution failed, or no copy verified (no trusted value to repair
	// from).
	Failed int
	// BatchRPCs is the number of batched maintenance RPCs the pass issued
	// (multi-group digests, column fetches, batched rechecks, coalesced
	// repair envelopes); 0 on the per-key path.
	BatchRPCs int
	// BatchMsgs is the number of network messages those batched RPCs
	// charged; 0 on the per-key path.
	BatchMsgs int
	// RepairBatches is the number of coalesced repair envelopes pushed
	// (StoreBatchTo calls); 0 on the per-key path.
	RepairBatches int
	// CoalescedPushes is the number of repair pushes that shared an
	// envelope with at least one sibling push — writes that would each
	// have cost a full RPC on the per-key path.
	CoalescedPushes int
	// Failed is counted above; Digest fingerprints the pass outcome
	// (groups in formation order; digest-clean groups contribute their
	// replica digest, drilled keys their canonical copy). Two runs over
	// identical state and seeds produce identical digests.
	Digest [32]byte
	// Stats is the network cost of the pass, including repairs.
	Stats overlay.OpStats
}

// Scrubber walks replica sets comparing, verifying, and repairing copies.
// It is the active half of the integrity layer: the resilience KV's Verify
// hook guarantees corrupt reads never surface, the scrubber removes the
// corruption and quarantines its source.
type Scrubber struct {
	kv      overlay.ReplicaKV
	repair  overlay.RepairKV      // nil: overlay cannot write per-replica
	digests overlay.DigestKV      // nil: overlay cannot summarize
	brepair overlay.BatchRepairKV // nil: overlay cannot batch fetch/repair
	bdigest overlay.BatchDigestKV // nil: overlay cannot batch digests
	cfg     Config
	verdict func(node string, ok bool)
	invalid func(key string) // nil until SetInvalidator
	pass    atomic.Uint64    // freshness nonce source: one per Scrub call
	tel     *scrubTelemetry  // nil until SetTelemetry
}

// scrubTelemetry holds the scrubber's resolved registry instruments.
type scrubTelemetry struct {
	passes        *telemetry.Counter
	keysScanned   *telemetry.Counter
	digestClean   *telemetry.Counter
	keysCompared  *telemetry.Counter
	corrupt       *telemetry.Counter
	missing       *telemetry.Counter
	unreachable   *telemetry.Counter
	repaired      *telemetry.Counter
	repairFails   *telemetry.Counter
	failed        *telemetry.Counter
	batchRPCs     *telemetry.Counter
	batchMsgs     *telemetry.Counter
	repairBatches *telemetry.Counter
	coalesced     *telemetry.Counter
	events        *telemetry.Log
}

// SetTelemetry mirrors the scrubber's per-pass accounting into reg's
// counters and emits repair/verdict events to reg's event log. Counters
// and events are updated in the deterministic merge loop only, so their
// values and order are independent of Workers.
func (s *Scrubber) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	s.tel = &scrubTelemetry{
		passes:        reg.Counter("scrub_passes_total"),
		keysScanned:   reg.Counter("scrub_keys_scanned_total"),
		digestClean:   reg.Counter("scrub_digest_clean_groups_total"),
		keysCompared:  reg.Counter("scrub_keys_compared_total"),
		corrupt:       reg.Counter("scrub_corrupt_copies_total"),
		missing:       reg.Counter("scrub_missing_copies_total"),
		unreachable:   reg.Counter("scrub_unreachable_holders_total"),
		repaired:      reg.Counter("scrub_repaired_writes_total"),
		repairFails:   reg.Counter("scrub_repair_write_failures_total"),
		failed:        reg.Counter("scrub_failed_keys_total"),
		batchRPCs:     reg.Counter("scrub_batch_rpcs_total"),
		batchMsgs:     reg.Counter("scrub_batch_msgs_total"),
		repairBatches: reg.Counter("scrub_repair_batches_total"),
		coalesced:     reg.Counter("scrub_repair_coalesced_pushes_total"),
		events:        reg.Events(),
	}
}

// New builds a scrubber over a replica-addressing overlay. Digest
// short-circuiting and repair activate automatically when the overlay
// implements overlay.DigestKV / overlay.RepairKV; the batched maintenance
// paths activate when it also implements overlay.BatchDigestKV /
// overlay.BatchRepairKV (Config.PerKey forces the per-key paths back on).
func New(kv overlay.ReplicaKV, cfg Config) *Scrubber {
	if cfg.Verify == nil {
		cfg.Verify = Check
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	s := &Scrubber{kv: kv, cfg: cfg}
	if r, ok := kv.(overlay.RepairKV); ok {
		s.repair = r
	}
	if d, ok := kv.(overlay.DigestKV); ok {
		s.digests = d
	}
	if br, ok := kv.(overlay.BatchRepairKV); ok {
		s.brepair = br
	}
	if bd, ok := kv.(overlay.BatchDigestKV); ok {
		s.bdigest = bd
	}
	return s
}

// batchDigests reports whether the multi-group digest phase is active.
func (s *Scrubber) batchDigests() bool { return s.bdigest != nil && !s.cfg.PerKey }

// batchData reports whether batched drill-down (column fetch, coalesced
// recheck and repair) is active.
func (s *Scrubber) batchData() bool { return s.brepair != nil && !s.cfg.PerKey }

// SetVerdict installs the corruption-verdict sink: ok=false means the node
// served a condemned copy, ok=true means it served the canonical one. Wire
// the resilient KV's health record in (KV.Breaker().ReportCorrupt /
// .Report, verdicts that never move its ranking) to quarantine persistent
// corrupters. Verdicts are applied in deterministic
// key order regardless of Workers.
func (s *Scrubber) SetVerdict(fn func(node string, ok bool)) { s.verdict = fn }

// SetInvalidator installs a per-key cache-invalidation sink, called during
// the deterministic merge for every key a pass found divergent (a condemned
// or missing copy) or failed to compare. The resilient KV wires its
// verified-value cache here so no cached value outlives a condemnation of
// its holder group. Call before the first Scrub; not synchronized with
// in-flight passes.
func (s *Scrubber) SetInvalidator(fn func(key string)) { s.invalid = fn }

// Group is one pre-resolved scrub unit: a replica set and the keys that
// resolve to it. Schedulers that plan replica sets from local state
// (scrub.Sweeper via dht.PlanReplicas) hand groups straight to
// ScrubResolved, skipping the per-key ReplicasFor resolution Scrub pays.
type Group struct {
	// Replicas is the replica candidate set shared by every key.
	Replicas []string
	// Keys are the keys to verify against that set.
	Keys []string
}

// group is the internal form of one replica set and its keys.
type group struct {
	replicas []string
	keys     []string
}

// copyState classifies one replica's copy of one key.
type copyState int

const (
	copyCanonical   copyState = iota // verified, matches canonical
	copyCondemned                    // failed verify or diverged, survived recheck
	copyMissing                      // replica answered not-found
	copyUnreachable                  // delivery failure; liveness is the healer's job
)

// keyOutcome is the drilled-down result for one key.
type keyOutcome struct {
	key       string
	canonical []byte
	found     bool
	best      [32]byte             // winning copy leaf of the election
	states    map[string]copyState // replica -> state
	failed    bool
}

// repairPush records one repair write for deterministic event emission.
type repairPush struct {
	key string
	to  string
	ok  bool
}

// groupResult carries a processed group's accounting back to the merge.
type groupResult struct {
	g             group
	digestClean   bool
	digestRoot    [32]byte
	outcomes      []keyOutcome
	repaired      int
	unrepair      int
	pushes        []repairPush // in (key, replica) order
	batchRPCs     int
	batchMsgs     int
	repairBatches int
	coalesced     int
	stats         overlay.OpStats
	span          *telemetry.Span // detached per-group span; nil when untraced
}

// Scrub runs one pass over the given keys and reports what it found and
// fixed. Keys are deduplicated in first-occurrence order; within a group
// keys are walked sorted.
func (s *Scrubber) Scrub(keys []string) (Report, error) {
	return s.ScrubSpan(nil, keys)
}

// ScrubSpan is Scrub with the pass's digest exchanges, drill-down
// verifications, and repair pushes attributed to child spans of sp (nil
// sp: identical untraced pass). Group spans are built detached by the
// workers and adopted in deterministic group order.
func (s *Scrubber) ScrubSpan(sp *telemetry.Span, keys []string) (Report, error) {
	report := Report{}
	uniq := dedupe(keys)
	report.KeysScanned = len(uniq)
	if len(uniq) == 0 {
		report.Digest = overlay.DigestOf(nil)
		s.notePass(&report)
		return report, nil
	}

	// Resolve every key's replica set and bucket keys by set: keys sharing
	// a replica set are compared through one digest exchange. Group
	// formation order follows the first-occurrence key order.
	type resolved struct {
		key      string
		replicas []string
		stats    overlay.OpStats
		err      error
	}
	res, _ := parallel.Map(s.cfg.Workers, uniq, func(_ int, key string) (resolved, error) {
		names, st, err := s.kv.ReplicasFor(s.cfg.Origin, key)
		return resolved{key: key, replicas: names, stats: st, err: err}, nil
	})
	bySet := make(map[string]*group)
	var setOrder []string
	for _, r := range res {
		report.Stats.Add(r.stats)
		if r.err != nil || len(r.replicas) == 0 {
			report.Failed++
			continue
		}
		sig := strings.Join(r.replicas, "\x00")
		g, ok := bySet[sig]
		if !ok {
			g = &group{replicas: r.replicas}
			bySet[sig] = g
			setOrder = append(setOrder, sig)
		}
		g.keys = append(g.keys, r.key)
	}
	groups := make([]group, 0, len(setOrder))
	for _, sig := range setOrder {
		g := bySet[sig]
		sort.Strings(g.keys)
		groups = append(groups, *g)
	}
	report.Groups = len(groups)
	s.run(sp, &report, groups)
	return report, nil
}

// ScrubResolved runs one pass over pre-resolved groups, skipping replica
// resolution entirely: the caller (a scheduler planning from local overlay
// state, e.g. Sweeper over dht.PlanReplicas) already knows each key's
// replica set. Network cost is bounded above by WorstCaseMessages over the
// same groups.
func (s *Scrubber) ScrubResolved(groups []Group) (Report, error) {
	return s.ScrubResolvedSpan(nil, groups)
}

// ScrubResolvedSpan is ScrubResolved with span attribution (see ScrubSpan).
func (s *Scrubber) ScrubResolvedSpan(sp *telemetry.Span, groups []Group) (Report, error) {
	report := Report{}
	// The pass works on its own copies of the caller's keys and replicas:
	// one flat array each, carved into per-group slices.
	nk, nr := 0, 0
	for _, g := range groups {
		nk += len(g.Keys)
		nr += len(g.Replicas)
	}
	keyBuf, repBuf := make([]string, 0, nk), make([]string, 0, nr)
	gs := make([]group, 0, len(groups))
	for _, g := range groups {
		lo := len(keyBuf)
		keys := append(keyBuf, g.Keys...)[lo:]
		slices.Sort(keys)
		keys = slices.Clip(slices.Compact(keys))
		keyBuf = keyBuf[:lo+len(keys)]
		report.KeysScanned += len(keys)
		if len(keys) == 0 {
			continue
		}
		if len(g.Replicas) == 0 {
			report.Failed += len(keys)
			continue
		}
		lo = len(repBuf)
		repBuf = append(repBuf, g.Replicas...)
		gs = append(gs, group{replicas: repBuf[lo:len(repBuf):len(repBuf)], keys: keys})
	}
	report.Groups = len(gs)
	if len(gs) == 0 {
		report.Digest = overlay.DigestOf(nil)
		s.notePass(&report)
		return report, nil
	}
	s.run(sp, &report, gs)
	return report, nil
}

// run executes the scrub pipeline over formed groups: the hoisted batched
// digest phase, the per-group drill-downs, and the deterministic merge.
func (s *Scrubber) run(sp *telemetry.Span, report *Report, groups []group) {
	nonce := s.pass.Add(1)
	digests := s.digestPhase(sp, nonce, groups, report)

	results, _ := parallel.Map(s.cfg.Workers, groups, func(i int, g group) (groupResult, error) {
		var gsp *telemetry.Span
		if sp != nil {
			gsp = telemetry.NewSpan("group")
		}
		var dg *groupDigests
		if digests != nil && digests[i].roots != nil {
			dg = &digests[i]
		}
		return s.scrubGroup(gsp, nonce, g, dg), nil
	})

	// Merge deterministically in group order: verdicts, counters, events,
	// spans, and the pass fingerprint all follow group formation order
	// (sorted keys within a group), independent of Workers.
	fp := make([][32]byte, 0, report.KeysScanned)
	for _, r := range results {
		sp.Adopt(r.span)
		report.Stats.Add(r.stats)
		report.RepairedWrites += r.repaired
		report.RepairWriteFailures += r.unrepair
		report.BatchRPCs += r.batchRPCs
		report.BatchMsgs += r.batchMsgs
		report.RepairBatches += r.repairBatches
		report.CoalescedPushes += r.coalesced
		for _, p := range r.pushes {
			s.emit("scrub.repair", telemetry.A("key", p.key),
				telemetry.A("to", p.to), telemetry.A("ok", strconv.FormatBool(p.ok)))
		}
		if r.digestClean {
			report.DigestClean++
			for _, key := range r.g.keys {
				fp = append(fp, merkle.NodeHash(merkle.LeafHashConcat(nil, key), r.digestRoot))
			}
			continue
		}
		for _, o := range r.outcomes {
			report.KeysCompared++
			if o.failed {
				report.Failed++
				if s.invalid != nil {
					// The pass could not establish this key's canonical
					// value — any cached copy is suspect.
					s.invalid(o.key)
				}
				continue
			}
			divergent := false
			for _, name := range r.g.replicas {
				switch o.states[name] {
				case copyCanonical:
					s.sayVerdict(name, true)
				case copyCondemned:
					report.CorruptCopies++
					divergent = true
					s.sayVerdict(name, false)
					s.emit("scrub.condemned", telemetry.A("key", o.key), telemetry.A("node", name))
				case copyMissing:
					report.MissingCopies++
					divergent = true
				case copyUnreachable:
					report.UnreachableHolders++
				}
			}
			if divergent {
				report.DivergentKeys++
				if s.invalid != nil {
					// A condemned or missing copy existed: drop any cached
					// value so the next read re-verifies post-repair state.
					s.invalid(o.key)
				}
			} else {
				report.CleanKeys++
			}
			fp = append(fp, merkle.NodeHash(merkle.LeafHashConcat(nil, o.key),
				overlay.CopyLeaf(o.key, o.canonical, o.found)))
		}
	}
	report.Digest = merkle.RootOf(fp)
	report.Repaired = report.RepairedWrites
	report.Unrepairable = report.RepairWriteFailures
	s.notePass(report)
}

// groupDigests carries one group's per-replica digest columns, fetched by
// the hoisted multi-group digest phase. A replica whose reply failed or
// never arrived has got=false — the group then drills down, never trusting
// a partial summary.
type groupDigests struct {
	roots []overlay.Digest // aligned with the group's replicas
	got   []bool
}

// clean reports whether every replica answered and all nonce-bound roots
// agree.
func (d *groupDigests) clean() bool {
	for _, ok := range d.got {
		if !ok {
			return false
		}
	}
	for _, r := range d.roots[1:] {
		if r.Fresh != d.roots[0].Fresh {
			return false
		}
	}
	return true
}

// digestPhase runs the hoisted multi-group digest exchange: one
// DigestBatchFrom per distinct replica, covering every multi-replica group
// that replica participates in, instead of one DigestFrom per (group,
// replica) pair. Returns nil when the batched digest path is inactive
// (groups then run the legacy per-group exchange inside scrubGroup); a
// group with fewer than two replicas gets no columns. Stats, counters, and
// spans are merged in deterministic replica order.
//
// The phase is positional: every (group, replica) pair owns one slot of
// flat roots/got arrays, so a group's columns are one window of them, and
// replica c's key groups are the window refs[start[c]:start[c+1]].
func (s *Scrubber) digestPhase(sp *telemetry.Span, nonce uint64, groups []group, report *Report) []groupDigests {
	if !s.batchDigests() {
		return nil
	}
	out := make([]groupDigests, len(groups))
	pairs := 0
	for gi := range groups {
		if n := len(groups[gi].replicas); n >= 2 {
			pairs += n
		}
	}
	if pairs == 0 {
		return out
	}
	roots := make([]overlay.Digest, pairs)
	got := make([]bool, pairs)
	order := make([]string, 0, pairs) // first-appearance replica order
	slot := 0
	for gi := range groups {
		reps := groups[gi].replicas
		if len(reps) < 2 {
			continue
		}
		end := slot + len(reps)
		out[gi] = groupDigests{roots: roots[slot:end:end], got: got[slot:end:end]}
		slot = end
		for _, name := range reps {
			if !slices.Contains(order, name) {
				order = append(order, name)
			}
		}
	}
	type ref struct{ gi, ri int } // a replica's column in one group
	refs := make([]ref, 0, pairs)
	keyGroups := make([][]string, 0, pairs) // aligned with refs
	start := make([]int, 1, len(order)+1)
	for _, name := range order {
		for gi := range groups {
			if ri := slices.Index(groups[gi].replicas, name); ri >= 0 && out[gi].roots != nil {
				refs = append(refs, ref{gi, ri})
				keyGroups = append(keyGroups, groups[gi].keys)
			}
		}
		start = append(start, len(refs))
	}
	type digestCol struct {
		roots []overlay.Digest
		st    overlay.OpStats
		err   error
		span  *telemetry.Span
	}
	cols, _ := parallel.Map(s.cfg.Workers, order, func(c int, name string) (digestCol, error) {
		kg := keyGroups[start[c]:start[c+1]]
		var dsp *telemetry.Span
		if sp != nil {
			dsp = telemetry.NewSpan("digest")
			dsp.Tag("replica", name)
			dsp.Tag("groups", strconv.Itoa(len(kg)))
		}
		roots, st, err := s.bdigest.DigestBatchFrom(s.cfg.Origin, kg, nonce, name)
		dsp.AddLatency(st.Latency)
		if err != nil {
			dsp.End("error")
		} else {
			dsp.End("ok")
		}
		return digestCol{roots: roots, st: st, err: err, span: dsp}, nil
	})
	for c, dc := range cols {
		sp.Adopt(dc.span)
		report.Stats.Add(dc.st)
		report.BatchRPCs++
		report.BatchMsgs += dc.st.Messages
		if dc.err != nil {
			continue
		}
		for j, root := range dc.roots {
			r := refs[start[c]+j]
			out[r.gi].roots[r.ri], out[r.gi].got[r.ri] = root, true
		}
	}
	return out
}

// WorstCaseMessages bounds the network messages one ScrubResolved pass over
// groups can charge, so a budgeted scheduler (Sweeper) can decide whether a
// chunk fits the remaining per-tick budget before spending anything. The
// bound assumes every RPC completes (a successful simnet RPC charges
// exactly two messages — request and reply; failures charge fewer) and
// every phase fires: digest exchange, full drill-down, recheck, and repair
// of every copy.
func (s *Scrubber) WorstCaseMessages(groups []Group) int {
	const perRPC = 2 // request + reply
	total := 0
	if s.batchDigests() {
		var buf [64]string
		distinct := buf[:0]
		for _, g := range groups {
			if len(g.Replicas) < 2 {
				continue
			}
			for _, n := range g.Replicas {
				if !slices.Contains(distinct, n) {
					distinct = append(distinct, n)
				}
			}
		}
		total += len(distinct) * perRPC
	} else if s.digests != nil {
		for _, g := range groups {
			if len(g.Replicas) > 1 {
				total += len(g.Replicas) * perRPC
			}
		}
	}
	for _, g := range groups {
		phases := 1 // column / per-key fetch
		if s.cfg.Recheck {
			phases++
		}
		if s.cfg.Repair && (s.repair != nil || s.brepair != nil) {
			phases++
		}
		if s.batchData() {
			total += phases * len(g.Replicas) * perRPC
		} else {
			total += phases * len(g.Replicas) * len(g.Keys) * perRPC
		}
	}
	return total
}

// notePass mirrors a finished pass's accounting into the registry.
func (s *Scrubber) notePass(r *Report) {
	t := s.tel
	if t == nil {
		return
	}
	t.passes.Inc()
	t.keysScanned.Add(int64(r.KeysScanned))
	t.digestClean.Add(int64(r.DigestClean))
	t.keysCompared.Add(int64(r.KeysCompared))
	t.corrupt.Add(int64(r.CorruptCopies))
	t.missing.Add(int64(r.MissingCopies))
	t.unreachable.Add(int64(r.UnreachableHolders))
	t.repaired.Add(int64(r.RepairedWrites))
	t.repairFails.Add(int64(r.RepairWriteFailures))
	t.failed.Add(int64(r.Failed))
	t.batchRPCs.Add(int64(r.BatchRPCs))
	t.batchMsgs.Add(int64(r.BatchMsgs))
	t.repairBatches.Add(int64(r.RepairBatches))
	t.coalesced.Add(int64(r.CoalescedPushes))
}

// emit sends one event to the registry's log, if telemetry is wired.
func (s *Scrubber) emit(name string, attrs ...telemetry.Attr) {
	if s.tel != nil {
		s.tel.events.Emit(name, attrs...)
	}
}

func (s *Scrubber) sayVerdict(node string, ok bool) {
	if s.verdict != nil {
		s.verdict(node, ok)
	}
}

// scrubGroup processes one replica set: digest comparison first, full value
// comparison and repair only for groups whose digests diverge (or whose
// overlay cannot digest). The pass nonce binds every digest to this pass.
// dg, when non-nil, carries the group's digest columns already fetched by
// the hoisted multi-group phase.
func (s *Scrubber) scrubGroup(gsp *telemetry.Span, nonce uint64, g group, dg *groupDigests) groupResult {
	r := groupResult{g: g, span: gsp}

	// Merkle fast path: matching digests prove the replicas agree
	// byte-for-byte over the whole key batch; a corrupted or lying digest
	// reply forces the drill-down, never a false clean. What digest
	// equality cannot prove is that the agreed bytes verify — the read
	// path's Verify hook remains the last line of defense against
	// uniformly-corrupt replica sets.
	if dg != nil {
		if dg.clean() {
			// Equality is judged on the nonce-bound roots, so a replayed
			// reply (recorded under an older nonce) always diverges and
			// forces the drill-down this pass. The nonce-free State root
			// then fingerprints the agreed replica state across passes.
			r.digestClean = true
			r.digestRoot = dg.roots[0].State
			gsp.End("digest-clean")
			return r
		}
	} else if !s.batchDigests() && s.digests != nil && len(g.replicas) > 1 {
		// Per-group exchange: one small RPC per replica instead of every
		// value.
		roots := make([]overlay.Digest, 0, len(g.replicas))
		ok := true
		for _, name := range g.replicas {
			dsp := gsp.Child("digest")
			dsp.Tag("replica", name)
			root, st, err := s.digests.DigestFrom(s.cfg.Origin, g.keys, nonce, name)
			r.stats.Add(st)
			dsp.AddLatency(st.Latency)
			if err != nil {
				dsp.End("error")
				ok = false
				break
			}
			dsp.End("ok")
			roots = append(roots, root)
		}
		if ok {
			equal := true
			for _, root := range roots[1:] {
				if root.Fresh != roots[0].Fresh {
					equal = false
					break
				}
			}
			if equal {
				r.digestClean = true
				r.digestRoot = roots[0].State
				gsp.End("digest-clean")
				return r
			}
		}
	}

	if s.batchData() {
		s.drillGroupBatched(gsp, g, &r)
	} else {
		for _, key := range g.keys {
			o := s.scrubKey(gsp, key, g.replicas, &r.stats)
			if o.found {
				s.repairKey(gsp, &o, g.replicas, &r)
			}
			r.outcomes = append(r.outcomes, o)
		}
	}
	gsp.End("drilled")
	return r
}

// electKey runs the canonical-value election over one key's fetched copies:
// verified copies vote by copy leaf, the largest set wins, ties broken by
// smallest leaf hash so the election is deterministic. Pure local
// computation shared by the per-key and batched drill-downs — both paths
// must elect identically for their reports to agree. Pre-set missing and
// unreachable states in o.states are left untouched; verified-or-condemned
// states are filled in here.
func (s *Scrubber) electKey(o *keyOutcome, replicas []string, values map[string][]byte) {
	votes := make(map[[32]byte]int)
	for _, name := range replicas {
		v, held := values[name]
		if !held {
			continue
		}
		if s.cfg.Verify(o.key, v) != nil {
			o.states[name] = copyCondemned
			continue
		}
		votes[overlay.CopyLeaf(o.key, v, true)]++
	}
	for leaf, n := range votes {
		if !o.found || n > votes[o.best] || (n == votes[o.best] && bytes.Compare(leaf[:], o.best[:]) < 0) {
			o.best = leaf
			o.found = true
		}
	}
	if !o.found {
		// Nothing verified: there is no trusted value to compare against
		// or repair from. Detect-or-fail still holds (the read path rejects
		// these copies); the key is reported failed, not silently skipped.
		o.failed = len(values) > 0 || len(o.states) > 0
		return
	}
	for _, name := range replicas {
		v, held := values[name]
		if !held || o.states[name] == copyCondemned {
			continue
		}
		if overlay.CopyLeaf(o.key, v, true) == o.best {
			o.states[name] = copyCanonical
			if o.canonical == nil {
				o.canonical = v
			}
		} else {
			// Verified but divergent: a valid record carrying different
			// bytes — the stale-replay shape. The majority copy wins.
			o.states[name] = copyCondemned
		}
	}
}

// drillGroupBatched is the batched drill-down: one FetchBatchFrom per
// replica retrieves the group's full value columns, elections run locally
// per key over the columns, condemned copies are rechecked with one batched
// refetch per replica, and repair pushes are coalesced into one
// StoreBatchTo per destination replica. Per-key fault isolation holds
// end to end: a failed envelope marks only that replica unreachable, a
// per-key slot error affects only that key, and a failed repair push never
// fails its envelope siblings.
func (s *Scrubber) drillGroupBatched(gsp *telemetry.Span, g group, r *groupResult) {
	// Phase 1: column fetch — one envelope per replica.
	colVals := make([][][]byte, len(g.replicas))
	colHeld := make([][]bool, len(g.replicas))
	colReach := make([]bool, len(g.replicas))
	for ri, name := range g.replicas {
		fsp := gsp.Child("fetch")
		fsp.Tag("replica", name)
		fsp.Tag("keys", strconv.Itoa(len(g.keys)))
		res, st, err := s.brepair.FetchBatchFrom(s.cfg.Origin, g.keys, name)
		r.stats.Add(st)
		r.batchRPCs++
		r.batchMsgs += st.Messages
		fsp.AddLatency(st.Latency)
		if err != nil {
			fsp.End("error")
			continue
		}
		fsp.End("ok")
		colReach[ri] = true
		colHeld[ri] = make([]bool, len(g.keys))
		colVals[ri] = make([][]byte, len(g.keys))
		for ki := range g.keys {
			if res[ki].Err == nil {
				colHeld[ri][ki] = true
				colVals[ri][ki] = res[ki].Value
			} else if !errors.Is(res[ki].Err, overlay.ErrNotFound) {
				// A per-key delivery-ish error inside a delivered envelope:
				// treat the copy as unreachable, exactly as the per-key
				// path classifies a failed LookupFrom.
				colHeld[ri][ki] = false
				colVals[ri][ki] = nil
			}
		}
	}

	// Phase 2: per-key election over the columns — local, zero messages.
	outs := make([]keyOutcome, len(g.keys))
	for ki, key := range g.keys {
		o := keyOutcome{key: key, states: make(map[string]copyState, len(g.replicas))}
		values := make(map[string][]byte, len(g.replicas))
		for ri, name := range g.replicas {
			switch {
			case !colReach[ri]:
				o.states[name] = copyUnreachable
			case !colHeld[ri][ki]:
				o.states[name] = copyMissing
			default:
				values[name] = colVals[ri][ki]
			}
		}
		vsp := gsp.Child("verify")
		vsp.Tag("key", key)
		s.electKey(&o, g.replicas, values)
		switch {
		case !o.found:
			vsp.End("failed")
		case anyDivergent(&o):
			vsp.End("divergent")
		default:
			vsp.End("clean")
		}
		outs[ki] = o
	}

	// Phase 3: coalesced recheck — one refetch envelope per replica over
	// its condemned keys, so a one-off wire corruption is not blamed on
	// the node (same contract as the per-key recheck).
	if s.cfg.Recheck {
		for _, name := range g.replicas {
			var cidx []int
			for ki := range g.keys {
				if outs[ki].found && outs[ki].states[name] == copyCondemned {
					cidx = append(cidx, ki)
				}
			}
			if len(cidx) == 0 {
				continue
			}
			rkeys := make([]string, len(cidx))
			for j, ki := range cidx {
				rkeys[j] = g.keys[ki]
			}
			rsp := gsp.Child("recheck")
			rsp.Tag("replica", name)
			rsp.Tag("keys", strconv.Itoa(len(cidx)))
			res, st, err := s.brepair.FetchBatchFrom(s.cfg.Origin, rkeys, name)
			r.stats.Add(st)
			r.batchRPCs++
			r.batchMsgs += st.Messages
			rsp.AddLatency(st.Latency)
			if err != nil {
				rsp.End("error")
				continue
			}
			rsp.End("ok")
			for j, ki := range cidx {
				o := &outs[ki]
				if res[j].Err == nil && s.cfg.Verify(o.key, res[j].Value) == nil &&
					overlay.CopyLeaf(o.key, res[j].Value, true) == o.best {
					o.states[name] = copyCanonical
				}
			}
		}
	}

	// Phase 4: coalesced repair — one StoreBatchTo per destination replica
	// carrying every condemned or missing copy it needs, instead of one
	// StoreTo per copy. Push outcomes are recorded per key and re-sorted
	// into (key, replica) order so event emission matches the per-key path.
	if s.cfg.Repair && s.brepair != nil {
		type pushRec struct {
			ki, ri int
			ok     bool
		}
		var recs []pushRec
		for ri, name := range g.replicas {
			var kis []int
			for ki := range g.keys {
				o := &outs[ki]
				if !o.found {
					continue
				}
				if st := o.states[name]; st == copyCondemned || st == copyMissing {
					kis = append(kis, ki)
				}
			}
			if len(kis) == 0 {
				continue
			}
			rkeys := make([]string, len(kis))
			rvals := make([][]byte, len(kis))
			for j, ki := range kis {
				rkeys[j] = g.keys[ki]
				rvals[j] = outs[ki].canonical
			}
			psp := gsp.Child("repair")
			psp.Tag("to", name)
			psp.Tag("keys", strconv.Itoa(len(kis)))
			errs, st, err := s.brepair.StoreBatchTo(s.cfg.Origin, rkeys, rvals, name)
			r.stats.Add(st)
			r.batchRPCs++
			r.batchMsgs += st.Messages
			r.repairBatches++
			if len(kis) > 1 {
				r.coalesced += len(kis)
			}
			psp.AddLatency(st.Latency)
			if err != nil {
				psp.End("error")
			} else {
				psp.End("ok")
			}
			for j, ki := range kis {
				ok := err == nil && errs[j] == nil
				if ok {
					r.repaired++
				} else {
					r.unrepair++
				}
				recs = append(recs, pushRec{ki: ki, ri: ri, ok: ok})
			}
		}
		sort.Slice(recs, func(a, b int) bool {
			if recs[a].ki != recs[b].ki {
				return recs[a].ki < recs[b].ki
			}
			return recs[a].ri < recs[b].ri
		})
		for _, rec := range recs {
			r.pushes = append(r.pushes, repairPush{
				key: g.keys[rec.ki], to: g.replicas[rec.ri], ok: rec.ok,
			})
		}
	}
	r.outcomes = outs
}

// anyDivergent reports whether any replica's copy is condemned or missing.
func anyDivergent(o *keyOutcome) bool {
	for _, st := range o.states {
		if st == copyCondemned || st == copyMissing {
			return true
		}
	}
	return false
}

// scrubKey fetches every replica's copy of one key, verifies them, and
// elects the canonical value (electKey). Condemnations are
// recheck-confirmed when configured.
func (s *Scrubber) scrubKey(gsp *telemetry.Span, key string, replicas []string, stats *overlay.OpStats) keyOutcome {
	o := keyOutcome{key: key, states: make(map[string]copyState, len(replicas))}
	vsp := gsp.Child("verify")
	vsp.Tag("key", key)
	values := make(map[string][]byte, len(replicas))
	for _, name := range replicas {
		v, st, err := s.kv.LookupFrom(s.cfg.Origin, key, name)
		stats.Add(st)
		vsp.AddLatency(st.Latency)
		switch {
		case err == nil:
			values[name] = v
		case errors.Is(err, overlay.ErrNotFound):
			o.states[name] = copyMissing
		default:
			o.states[name] = copyUnreachable
		}
	}

	s.electKey(&o, replicas, values)
	if !o.found {
		vsp.End("failed")
		return o
	}

	// Recheck: condemned copies are re-fetched once before the verdict
	// stands, so a one-off wire corruption is not blamed on the node.
	if s.cfg.Recheck {
		for _, name := range replicas {
			if o.states[name] != copyCondemned {
				continue
			}
			v, st, err := s.kv.LookupFrom(s.cfg.Origin, key, name)
			stats.Add(st)
			vsp.AddLatency(st.Latency)
			if err == nil && s.cfg.Verify(key, v) == nil && overlay.CopyLeaf(key, v, true) == o.best {
				o.states[name] = copyCanonical
			}
		}
	}
	if anyDivergent(&o) {
		vsp.End("divergent")
	} else {
		vsp.End("clean")
	}
	return o
}

// repairKey pushes the canonical value over condemned and missing copies.
func (s *Scrubber) repairKey(gsp *telemetry.Span, o *keyOutcome, replicas []string, r *groupResult) {
	if !s.cfg.Repair || s.repair == nil {
		return
	}
	for _, name := range replicas {
		st := o.states[name]
		if st != copyCondemned && st != copyMissing {
			continue
		}
		psp := gsp.Child("repair")
		psp.Tag("key", o.key)
		psp.Tag("to", name)
		pst, err := s.repair.StoreTo(s.cfg.Origin, o.key, o.canonical, name)
		r.stats.Add(pst)
		psp.AddLatency(pst.Latency)
		if err == nil {
			psp.End("ok")
			r.repaired++
		} else {
			psp.End("error")
			r.unrepair++
		}
		r.pushes = append(r.pushes, repairPush{key: o.key, to: name, ok: err == nil})
	}
}

// dedupe removes duplicate keys preserving first-occurrence order. The
// caller's order is load-bearing: group formation (and therefore merge,
// event, and fingerprint order) follows it, so dedupe must keep positions
// stable — identically at any worker count — rather than sort.
func dedupe(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}
