package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"godosn/internal/core"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/social/privacy"
)

const (
	socialUsers   = 120
	socialMembers = 3 // friends each owner shares its group with
	revokeEvery   = 4 // each round, one owner in revokeEvery revokes a member
)

// schemes are the six Table I schemes, assigned to owners round-robin.
var schemes = []privacy.Scheme{
	privacy.SchemeSubstitution, privacy.SchemeSymmetric, privacy.SchemePublicKey,
	privacy.SchemeABE, privacy.SchemeIBBE, privacy.SchemeHybrid,
}

// owner is one user's group and what it has published.
type owner struct {
	node    *core.Node
	group   privacy.Group
	gname   string
	scheme  int
	members []*core.Node // the friends the group is shared with
	bodies  [][]byte     // published bodies, by post sequence
}

// schemeNames are the per-scheme span names of one tracer.
type schemeNames struct{ publish, read, revoke, readd int32 }

// socialPrivate is the social-private workload: every round each user
// publishes to its group and the group's members read and decrypt the
// post; some owners revoke a member, republish their archive and re-admit
// the member.
type socialPrivate struct {
	n      *core.Network
	owners []*owner
	seed   int64
	epoch  int
	rkv    *resilience.KV
	nkv    *netKV // traced runs only
	names  []schemeNames

	removeNs    [6]int64
	removes     [6]int
	recordBytes [6]int
	records     [6]int
	republished int
	revokes     int
}

func userName(i int) string { return fmt.Sprintf("u%03d", i) }

func buildSocial(seed int64, epoch int, e *env) (instance, error) {
	users := make([]string, socialUsers)
	var friends []core.Friendship
	for i := range users {
		users[i] = userName(i)
		// Ring lattice: each user befriends its two successors.
		friends = append(friends,
			core.Friendship{A: userName(i), B: userName((i + 1) % socialUsers)},
			core.Friendship{A: userName(i), B: userName((i + 2) % socialUsers)})
	}
	netSeed := seed*1009 + int64(epoch)
	n, err := core.NewNetwork(core.Config{Seed: netSeed, Users: users, Friendships: friends, ReplicationFactor: 3})
	if err != nil {
		return nil, err
	}
	// Wrap the DHT exactly as core.NewNetwork does for a resilient
	// deployment, through the public Network.KV field, so a seam can sit
	// between the resilience layer and the DHT.
	d, ok := n.KV.(*dht.DHT)
	if !ok {
		return nil, fmt.Errorf("network overlay is %T, want *dht.DHT", n.KV)
	}
	s := &socialPrivate{n: n, seed: seed, epoch: epoch}
	s.rkv = resilience.Wrap(e.seamed(d), resilience.DefaultConfig(netSeed))
	if e.telemetry {
		s.rkv.SetTelemetry(n.Telemetry)
	} else {
		n.Sim.SetTelemetry(nil)
	}
	n.KV = s.rkv
	if e.tr != nil {
		s.nkv = newNetKV(s.rkv, e.tr)
		n.KV = s.nkv
		for _, sc := range schemes {
			s.names = append(s.names, schemeNames{
				publish: e.tr.name("core.Publish." + string(sc)),
				read:    e.tr.name("core.ReadPost." + string(sc)),
				revoke:  e.tr.name("core.Revoke." + string(sc)),
				readd:   e.tr.name("core.Readmit." + string(sc)),
			})
		}
	} else {
		s.names = make([]schemeNames, len(schemes))
	}
	for i := range users {
		o := &owner{node: n.MustNode(userName(i)), gname: "g-" + userName(i), scheme: i % len(schemes)}
		if o.group, err = o.node.CreateGroup(o.gname, schemes[o.scheme], ""); err != nil {
			return nil, err
		}
		for _, j := range []int{i + 1, i + 2, i + socialUsers - 1} {
			m := n.MustNode(userName(j % socialUsers))
			if err := o.group.Add(m.Name()); err != nil {
				return nil, err
			}
			if err := o.node.ShareGroup(o.gname, m); err != nil {
				return nil, err
			}
			o.members = append(o.members, m)
		}
		s.owners = append(s.owners, o)
	}
	return s, nil
}

func (s *socialPrivate) body(i, seq int) []byte {
	return []byte(fmt.Sprintf("post %d by %s in epoch %d of seed %d: %0*d", seq, userName(i), s.epoch, s.seed, 120, seq*7919+i))
}

func (s *socialPrivate) net() *simnet.Network { return s.n.Sim }

// readPost has member m read post seq of owner o and checks the plaintext.
func (s *socialPrivate) readPost(rc *rec, o *owner, m *core.Node, seq int) error {
	rc.ops++
	t0, sp := rc.begin(s.names[o.scheme].read)
	pt, st, err := m.ReadPost(o.node.Name(), uint64(seq))
	rc.end(t0, sp)
	rc.read(st)
	out := uint64(outHit)
	switch {
	case err != nil:
		out = outErr
	case !bytes.Equal(pt, o.bodies[seq]):
		return fmt.Errorf("%s read post %d of %s: plaintext differs from the published body", m.Name(), seq, o.node.Name())
	default:
		rc.ok++
	}
	h := fnv.New64a()
	h.Write(pt)
	rc.fold(uint64(seq), out, h.Sum64())
	return nil
}

func (s *socialPrivate) round(r int, rc *rec) error {
	for i, o := range s.owners {
		seq := len(o.bodies)
		body := s.body(i, seq)
		o.bodies = append(o.bodies, body)
		rc.ops++
		t0, sp := rc.begin(s.names[o.scheme].publish)
		_, st, err := o.node.Publish(o.gname, body)
		rc.end(t0, sp)
		rc.write(st)
		if s.nkv != nil {
			s.recordBytes[o.scheme] += s.nkv.lastStored
			s.records[o.scheme]++
		}
		if err != nil {
			continue
		}
		rc.ok++
		for _, m := range o.members {
			if err := s.readPost(rc, o, m, seq); err != nil {
				return err
			}
		}
	}
	for i, o := range s.owners {
		if (i+r)%revokeEvery != 0 {
			continue
		}
		if err := s.revoke(rc, o, o.members[(i+r)%socialMembers]); err != nil {
			return err
		}
		// A member that stayed reads the oldest post back from the
		// republished archive.
		if err := s.readPost(rc, o, o.members[(i+r+1)%socialMembers], 0); err != nil {
			return err
		}
	}
	return nil
}

// revoke removes member x from o's group, re-stores the re-encrypted
// archive, and re-admits x: two client operations.
func (s *socialPrivate) revoke(rc *rec, o *owner, x *core.Node) error {
	rc.ops += 2
	seqs := make([]uint64, len(o.bodies))
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	t0, sp := rc.begin(s.names[o.scheme].revoke)
	r0 := time.Now()
	_, err := o.group.Remove(x.Name())
	s.removeNs[o.scheme] += int64(time.Since(r0))
	s.removes[o.scheme]++
	if err != nil {
		rc.end(t0, sp)
		return fmt.Errorf("%s revoking %s: %w", o.node.Name(), x.Name(), err)
	}
	st, err := o.node.RepublishArchive(o.gname, seqs)
	rc.end(t0, sp)
	rc.cost(st)
	s.republished += st.Messages
	s.revokes++
	if err == nil {
		rc.ok++
	}
	t0, sp = rc.begin(s.names[o.scheme].readd)
	err = o.group.Add(x.Name())
	rc.end(t0, sp)
	if err != nil {
		return fmt.Errorf("%s re-admitting %s: %w", o.node.Name(), x.Name(), err)
	}
	rc.ok++
	return nil
}

func (s *socialPrivate) counters() map[string]float64 {
	c := stackCounters(s.n.Sim, s.rkv)
	c["core.republish"], c["core.revokes"] = float64(s.republished), float64(s.revokes)
	for i, sc := range schemes {
		c["privacy.remove_ns."+string(sc)] = float64(s.removeNs[i])
		c["privacy.removes."+string(sc)] = float64(s.removes[i])
		c["privacy.record_bytes."+string(sc)] = float64(s.recordBytes[i])
		c["privacy.records."+string(sc)] = float64(s.records[i])
	}
	return c
}

func (s *socialPrivate) endCount(*rec, map[string]float64) error { return nil }

func (s *socialPrivate) dropInputs() {
	for _, o := range s.owners {
		o.bodies = nil
	}
}
