package scrub

import (
	"slices"

	"godosn/internal/telemetry"
)

// This file implements the Sweeper: a tick-driven, rate-limited continuous
// scrub scheduler. Instead of the on-demand full key-list walk (Scrub over
// everything, whenever someone remembers to call it), the Sweeper
// round-robins the keyspace in fixed chunks under a hard per-tick message
// budget, and re-scrubs chunks early — through a priority queue — when a
// bad verdict, a divergent pass, or a quarantine event implicates them.
//
// The budget is enforced by pre-charging, not by measuring after the fact:
// replica sets are planned from local overlay state (Planner, zero network
// cost), the pass's worst-case message count is computed with
// Scrubber.WorstCaseMessages, and a chunk is only started when the already
// spent messages plus that worst case fit the budget. A tick can therefore
// never exceed its budget, by construction. A chunk whose lone worst case
// exceeds the whole budget can never run; it is counted as starved and
// skipped rather than wedging the sweep.

// Planner resolves a key's replica candidate set from local state, free of
// network cost. dht.PlanReplicas implements it; any overlay with a global
// view can.
type Planner interface {
	PlanReplicas(key string) []string
}

// SweepConfig parameterizes a Sweeper.
type SweepConfig struct {
	// Budget is the per-tick message budget: a Tick never starts a chunk
	// whose worst-case cost would push the tick's total past Budget.
	// <= 0 disables budgeting — each tick then scrubs exactly one chunk.
	Budget int
	// ChunkKeys is the number of keys per sweep chunk (default 16).
	ChunkKeys int
}

// SweepReport summarizes one Sweeper tick.
type SweepReport struct {
	// Tick is the 1-based tick number.
	Tick int
	// Chunks is the number of chunks scrubbed this tick.
	Chunks int
	// Keys is the number of keys scanned this tick.
	Keys int
	// Msgs is the number of network messages actually spent this tick —
	// always <= Budget when budgeting is on.
	Msgs int
	// Worst is the sum of the pre-charged worst cases of the chunks run.
	Worst int
	// Priority is how many of the scrubbed chunks came from the priority
	// queue rather than the cursor.
	Priority int
	// Starved counts chunks skipped because their lone worst case exceeds
	// the entire budget — they can never run at this budget.
	Starved int
	// Divergent, Repaired, and Failed aggregate the underlying scrub
	// reports.
	Divergent int
	Repaired  int
	Failed    int
	// Reports are the per-chunk scrub reports, in execution order.
	Reports []Report
}

// Sweeper schedules continuous scrubbing over a registered keyspace. Not
// safe for concurrent use; drive it from the simulation tick loop.
type Sweeper struct {
	sc      *Scrubber
	planner Planner
	cfg     SweepConfig

	chunks  [][]string     // fixed partition of the keyspace, registration order
	chunkOf map[string]int // key -> chunk index
	seen    map[string]bool
	cursor  int // next cursor chunk

	prio     []int // priority queue: chunk indices, FIFO
	queued   map[int]bool
	lastPlan [][]string // chunk -> replicas seen at last scrub, sorted and distinct

	ticks int

	tel *sweepTelemetry
}

// sweepTelemetry holds the sweeper's resolved registry instruments.
type sweepTelemetry struct {
	position *telemetry.Gauge
	ticks    *telemetry.Counter
	chunks   *telemetry.Counter
	keys     *telemetry.Counter
	msgs     *telemetry.Counter
	priority *telemetry.Counter
	starved  *telemetry.Counter
}

// NewSweeper builds a sweeper over the scrubber and planner. keys seed the
// keyspace (deduplicated, first-occurrence order — chunk formation follows
// it); more can be added later with AddKeys.
func NewSweeper(sc *Scrubber, planner Planner, keys []string, cfg SweepConfig) *Sweeper {
	if cfg.ChunkKeys < 1 {
		cfg.ChunkKeys = 16
	}
	s := &Sweeper{
		sc:      sc,
		planner: planner,
		cfg:     cfg,
		chunkOf: make(map[string]int),
		seen:    make(map[string]bool),
		queued:  make(map[int]bool),
	}
	s.AddKeys(keys...)
	return s
}

// SetTelemetry mirrors the sweeper's per-tick accounting into reg.
func (s *Sweeper) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	s.tel = &sweepTelemetry{
		position: reg.Gauge("scrub_sweep_position"),
		ticks:    reg.Counter("scrub_sweep_ticks_total"),
		chunks:   reg.Counter("scrub_sweep_chunks_total"),
		keys:     reg.Counter("scrub_sweep_keys_total"),
		msgs:     reg.Counter("scrub_sweep_msgs_total"),
		priority: reg.Counter("scrub_sweep_priority_total"),
		starved:  reg.Counter("scrub_sweep_starved_total"),
	}
}

// AddKeys registers keys with the sweep (duplicates ignored). New keys fill
// the last chunk up to ChunkKeys, then open new chunks — chunk indices are
// stable once assigned, so cursor and priority state survive growth.
func (s *Sweeper) AddKeys(keys ...string) {
	for _, k := range keys {
		if s.seen[k] {
			continue
		}
		s.seen[k] = true
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last]) >= s.cfg.ChunkKeys {
			s.chunks = append(s.chunks, nil)
			s.lastPlan = append(s.lastPlan, nil)
			last = len(s.chunks) - 1
		}
		s.chunks[last] = append(s.chunks[last], k)
		s.chunkOf[k] = last
	}
}

// Keys reports the registered keyspace size; Chunks the chunk count.
func (s *Sweeper) Keys() int   { return len(s.seen) }
func (s *Sweeper) Chunks() int { return len(s.chunks) }

// Position returns the sweep cursor: the chunk index the next tick starts
// from. Persist it and hand it to SetPosition to resume a sweep across a
// restart.
func (s *Sweeper) Position() int { return s.cursor }

// SetPosition moves the sweep cursor (clamped into the chunk range) — the
// resume half of Position.
func (s *Sweeper) SetPosition(pos int) {
	if len(s.chunks) == 0 {
		s.cursor = 0
		return
	}
	if pos < 0 {
		pos = 0
	}
	s.cursor = pos % len(s.chunks)
}

// NoteSuspect enqueues the chunk holding key for early re-scrub — wire bad
// read verdicts or invalidation signals here.
func (s *Sweeper) NoteSuspect(key string) {
	if ci, ok := s.chunkOf[key]; ok {
		s.enqueue(ci)
	}
}

// NoteSuspectNode enqueues every chunk whose last scrubbed plan included
// the node — wire quarantine events here so the keys a corrupter touched
// are re-verified early. Chunks not yet swept have no plan and need no
// priority; the cursor reaches them anyway.
func (s *Sweeper) NoteSuspectNode(node string) {
	for ci := range s.chunks {
		if _, found := slices.BinarySearch(s.lastPlan[ci], node); found {
			s.enqueue(ci)
		}
	}
}

// enqueue adds a chunk to the priority queue once.
func (s *Sweeper) enqueue(ci int) {
	if !s.queued[ci] {
		s.queued[ci] = true
		s.prio = append(s.prio, ci)
	}
}

// peek returns the next chunk to consider — priority queue first (FIFO),
// then the cursor — without consuming it. visited chunks are skipped (but
// left queued: a chunk re-implicated mid-tick re-scrubs next tick, not
// twice in one).
func (s *Sweeper) peek(visited map[int]bool) (ci int, fromPrio bool, ok bool) {
	for _, c := range s.prio {
		if !visited[c] {
			return c, true, true
		}
	}
	n := len(s.chunks)
	c := s.cursor
	for i := 0; i < n; i++ {
		if !visited[c] {
			return c, false, true
		}
		c = (c + 1) % n
	}
	return 0, false, false
}

// consume removes a peeked chunk from its source: priority entries leave
// the queue, cursor picks advance the cursor past the chunk.
func (s *Sweeper) consume(ci int, fromPrio bool) {
	if fromPrio {
		for i, c := range s.prio {
			if c == ci {
				s.prio = append(s.prio[:i], s.prio[i+1:]...)
				break
			}
		}
		delete(s.queued, ci)
		return
	}
	s.cursor = (ci + 1) % len(s.chunks)
}

// planChunk forms the chunk's scrub groups from local replica planning:
// keys sharing a planned replica set share a group (first-occurrence
// order, the same bucketing Scrub applies after resolution). Zero network
// cost. Keys whose plan is empty form a headless group that ScrubResolved
// reports as failed. A chunk holds few groups, so a group is found by
// comparing replica lists, and the groups' keys share one array.
func (s *Sweeper) planChunk(ci int) []Group {
	keys := s.chunks[ci]
	groups := make([]Group, 0, len(keys))
	gidx := make([]int, len(keys)) // key -> group
	for i, key := range keys {
		names := s.planner.PlanReplicas(key)
		gi := slices.IndexFunc(groups, func(g Group) bool { return slices.Equal(g.Replicas, names) })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, Group{Replicas: names})
		}
		gidx[i] = gi
	}
	flat := make([]string, 0, len(keys))
	for gi := range groups {
		lo := len(flat)
		for i, key := range keys {
			if gidx[i] == gi {
				flat = append(flat, key)
			}
		}
		groups[gi].Keys = flat[lo:len(flat):len(flat)]
	}
	return groups
}

// replicaSet returns the distinct replicas of groups, sorted, reusing dst's
// array.
func replicaSet(dst []string, groups []Group) []string {
	dst = dst[:0]
	for _, g := range groups {
		dst = append(dst, g.Replicas...)
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// Tick runs one budgeted sweep step: chunks are taken from the priority
// queue, then round-robin from the cursor, each pre-charged at its worst
// case and started only if the tick's total stays within Budget. The
// returned report's Msgs never exceeds Budget when budgeting is on.
func (s *Sweeper) Tick() (SweepReport, error) {
	s.ticks++
	rep := SweepReport{Tick: s.ticks}
	if s.tel != nil {
		s.tel.ticks.Inc()
	}
	if len(s.chunks) == 0 {
		s.noteTick(&rep)
		return rep, nil
	}
	visited := make(map[int]bool)
	for {
		ci, fromPrio, ok := s.peek(visited)
		if !ok {
			break // every chunk already visited this tick
		}
		groups := s.planChunk(ci)
		worst := s.sc.WorstCaseMessages(groups)
		if s.cfg.Budget > 0 {
			if worst > s.cfg.Budget {
				// This chunk can never fit the budget: count it starved
				// and move past it instead of wedging the sweep.
				s.consume(ci, fromPrio)
				visited[ci] = true
				rep.Starved++
				if s.tel != nil {
					s.tel.starved.Inc()
				}
				continue
			}
			if rep.Msgs+worst > s.cfg.Budget {
				break // does not fit this tick; resume here next tick
			}
		}
		s.consume(ci, fromPrio)
		visited[ci] = true
		r, err := s.sc.ScrubResolved(groups)
		if err != nil {
			return rep, err
		}
		s.lastPlan[ci] = replicaSet(s.lastPlan[ci], groups)
		rep.Chunks++
		rep.Keys += r.KeysScanned
		rep.Msgs += r.Stats.Messages
		rep.Worst += worst
		rep.Divergent += r.DivergentKeys
		rep.Repaired += r.RepairedWrites
		rep.Failed += r.Failed
		if fromPrio {
			rep.Priority++
		}
		rep.Reports = append(rep.Reports, r)
		if r.DivergentKeys > 0 || r.Failed > 0 {
			// Bad verdict: this chunk re-scrubs early — next tick, through
			// the priority queue.
			s.enqueue(ci)
		}
		if s.cfg.Budget <= 0 {
			break // unbudgeted ticks scrub exactly one chunk
		}
	}
	s.noteTick(&rep)
	return rep, nil
}

// noteTick mirrors a finished tick into the registry.
func (s *Sweeper) noteTick(rep *SweepReport) {
	if s.tel == nil {
		return
	}
	s.tel.position.Set(float64(s.cursor))
	s.tel.chunks.Add(int64(rep.Chunks))
	s.tel.keys.Add(int64(rep.Keys))
	s.tel.msgs.Add(int64(rep.Msgs))
	s.tel.priority.Add(int64(rep.Priority))
	s.tel.starved.Add(int64(rep.Starved))
}

// PendingPriority returns the queued priority chunks in FIFO order — test
// and experiment introspection.
func (s *Sweeper) PendingPriority() []int {
	return append([]int(nil), s.prio...)
}
