package sim

import (
	"fmt"

	"repro/internal/beacon"
	"repro/internal/blocktree"
	"repro/internal/forkchoice"
	"repro/internal/network"
	"repro/internal/types"
)

// Snapshot is a frozen copy of a simulation's full protocol state at a
// slot boundary: every cohort view (block tree, fork-choice engine, FFG
// state, attestation pool, slashing detector, registry), the in-flight
// network messages, duty-view assignments, live proposer embargoes, the
// Safety-audit oracle, and the clock. Construct with Simulation.Snapshot;
// replay with Simulation.Restore.
//
// A snapshot is immutable once taken: Restore clones it again, so one
// snapshot can seed any number of continuations — long runs become
// resumable, and sweeps whose cells share a prefix (same Config up to the
// branch point) warm-start from one simulated prefix instead of
// re-simulating epoch 0 per cell (engine.Options.WarmStart promotes this
// primitive into a refcounted compute cache).
//
// Everything pseudo-random in the simulator is a stateless hash of
// (seed, slot, ...) — proposer schedule, duty shuffling, link outages —
// so the snapshot needs no RNG cursor beyond the slot itself: a restored
// run re-derives the identical schedule. The one thing OUTSIDE the
// snapshot is Config.Adversary: adversary-internal state is the caller's
// to manage. Adversary-free runs (sim/partition, sim/leak, sim/drops,
// sim/gst) and the stateless DoubleVoter restore exactly; the SemiActive
// adversary carries a small scalar gait state machine that Restore does
// not rewind — warm-start continuations pair each snapshot with a
// behavior.SemiActive.Clone taken at the same boundary; the Bouncer
// caches view pointers and carries its own RNG cursor and may not be
// resumed across a Restore of an epoch range in which it mutated.
//
// GST portability: a snapshot may be restored into a simulation whose
// Config.GST differs from the snapshotted run's — Restore retargets the
// held cross-partition traffic onto the new heal slot
// (network.RetargetGST). Prefix runs meant for fan-out across a gst sweep
// use network.FarFuture (held messages retained) rather than
// network.Never (discarded at enqueue).
type Snapshot struct {
	validators int
	slot       types.Slot
	nodes      []*beacon.Node
	dutyView   []int
	embargoes  []embargo
	oracle     *blocktree.Tree
	net        *network.Network[Message]
	bytes      int64
}

// Slot returns the slot at which the snapshot was taken (the next slot to
// execute after a Restore).
func (sn *Snapshot) Slot() types.Slot { return sn.slot }

// Bytes estimates the snapshot's retained heap footprint: block-tree and
// fork-choice columns (exact, via their Stats), validator registries (two
// per view — current plus justified-checkpoint balances), and the held
// network messages. Warm-started sweeps budget resident snapshots against
// this figure (engine.WarmStartOptions.MemoryBudget).
func (sn *Snapshot) Bytes() int64 { return sn.bytes }

// Per-entry estimates for the snapshot components that do not expose an
// exact byte count: one validator registry row is four 8-byte columns, and
// a held network message is a three-pointer union plus map/slice overhead.
const (
	registryRowBytes = 32
	heldMessageBytes = 64
)

// snapshotBytes sums the footprint of the cloned state.
func snapshotBytes(sn *Snapshot) int64 {
	var total int64
	for _, n := range sn.nodes {
		total += int64(n.Tree.Stats().Bytes)
		if pa, ok := n.Votes.(*forkchoice.ProtoArray); ok {
			total += int64(pa.Stats().Bytes)
		}
		total += 2 * registryRowBytes * int64(n.Registry.Len())
	}
	total += int64(sn.oracle.Stats().Bytes)
	// Network endpoints are cohort views, one inbox per materialized view.
	for endpoint := range sn.nodes {
		total += heldMessageBytes * int64(sn.net.PendingFor(network.NodeID(endpoint)))
	}
	return total
}

// Snapshot captures the simulation's current state. The cost is one deep
// copy of every cohort view plus the undelivered messages — flat column
// copies throughout (registry, proto-array, tree nodes), no per-validator
// map rehashing.
func (s *Simulation) Snapshot() *Snapshot {
	sn := &Snapshot{
		validators: s.Cfg.Validators,
		slot:       s.slot,
		nodes:      make([]*beacon.Node, len(s.cohorts)),
		dutyView:   append([]int(nil), s.dutyView...),
		embargoes:  append([]embargo(nil), s.embargoes...),
		oracle:     s.oracle.Clone(),
		net:        s.Net.Clone(),
	}
	for i, c := range s.cohorts {
		sn.nodes[i] = c.Node.Clone()
	}
	sn.bytes = snapshotBytes(sn)
	return sn
}

// Restore rewinds (or fast-forwards) the simulation to the snapshot's
// state. The snapshot must come from a simulation with the same Config —
// same validator set, cohort layout, spec, and seed — except for GST,
// which may differ: held cross-partition traffic is retargeted onto this
// simulation's own heal slot, the warm-start path that lets one shared
// prefix (snapshotted under network.FarFuture) fan out across a gst
// sweep's cells. The snapshot itself is not consumed: its state is cloned
// in, so it can be restored again.
func (s *Simulation) Restore(sn *Snapshot) error {
	if sn.validators != s.Cfg.Validators || len(sn.nodes) != len(s.cohorts) {
		return fmt.Errorf("%w: snapshot of %d validators / %d cohorts restored into %d / %d",
			ErrBadConfig, sn.validators, len(sn.nodes), s.Cfg.Validators, len(s.cohorts))
	}
	for i, c := range s.cohorts {
		c.Node = sn.nodes[i].Clone()
	}
	s.Net = sn.net.Clone()
	s.Net.RetargetGST(s.Cfg.GST)
	s.oracle = sn.oracle.Clone()
	copy(s.dutyView, sn.dutyView)
	s.embargoes = append(s.embargoes[:0], sn.embargoes...)
	s.slot = sn.slot
	// The duty roster caches (epoch, seed, shuffling)-derived state; the
	// restored epoch may differ, so force a rebuild.
	s.dutyRosterSet = false
	return nil
}

// Adopt is Restore without the defensive deep copy: the snapshot's state
// is moved into the simulation and the snapshot is consumed (poisoned —
// any later Restore or Adopt of it fails). Use it only for a snapshot's
// final consumer; the warm-start scheduler grants that through refcounts
// (engine.Prefix.Owned). The resulting state is identical to Restore's,
// so adopting versus restoring can never change a run's results — it only
// skips cloning state that would be garbage the moment it was copied.
func (s *Simulation) Adopt(sn *Snapshot) error {
	if sn.nodes == nil {
		return fmt.Errorf("%w: snapshot already adopted", ErrBadConfig)
	}
	if sn.validators != s.Cfg.Validators || len(sn.nodes) != len(s.cohorts) {
		return fmt.Errorf("%w: snapshot of %d validators / %d cohorts adopted into %d / %d",
			ErrBadConfig, sn.validators, len(sn.nodes), s.Cfg.Validators, len(s.cohorts))
	}
	for i, c := range s.cohorts {
		c.Node = sn.nodes[i]
	}
	s.Net = sn.net
	s.Net.RetargetGST(s.Cfg.GST)
	s.oracle = sn.oracle
	copy(s.dutyView, sn.dutyView)
	s.embargoes = append(s.embargoes[:0], sn.embargoes...)
	s.slot = sn.slot
	s.dutyRosterSet = false
	sn.nodes, sn.net, sn.oracle = nil, nil, nil
	return nil
}

// Attach points the simulation at the snapshot's state without cloning or
// consuming it: cohort nodes, network, and oracle ALIAS the snapshot. The
// caller must treat the attached simulation as strictly read-only —
// computing metrics and assembling results is fine, stepping it would
// corrupt the shared snapshot for every other consumer. Unlike Restore,
// Attach does not retarget the held network traffic onto this simulation's
// GST (that would mutate the shared network): a read-only consumer never
// delivers another message, so the held band's position is unobservable to
// it. This is the warm-start fast path for a resume whose branch epoch
// equals its horizon — nothing remains to simulate, so the cell's Result
// is read straight off the checkpoint.
func (s *Simulation) Attach(sn *Snapshot) error {
	if sn.nodes == nil {
		return fmt.Errorf("%w: snapshot already adopted", ErrBadConfig)
	}
	if sn.validators != s.Cfg.Validators || len(sn.nodes) != len(s.cohorts) {
		return fmt.Errorf("%w: snapshot of %d validators / %d cohorts attached to %d / %d",
			ErrBadConfig, sn.validators, len(sn.nodes), s.Cfg.Validators, len(s.cohorts))
	}
	for i, c := range s.cohorts {
		c.Node = sn.nodes[i]
	}
	s.Net = sn.net
	s.oracle = sn.oracle
	copy(s.dutyView, sn.dutyView)
	s.embargoes = append(s.embargoes[:0], sn.embargoes...)
	s.slot = sn.slot
	s.dutyRosterSet = false
	return nil
}

// SetGST rebases a running simulation onto a new heal slot: the network's
// held cross-partition traffic moves with it (network.RetargetGST), and
// all future reachability and compaction decisions use the new GST.
// Equivalent to restoring a snapshot of this state into a simulation
// configured with the new GST — the warm-start path uses it to hand a
// spine's still-live FarFuture simulation directly to a resuming cell.
func (s *Simulation) SetGST(gst types.Slot) {
	s.Cfg.GST = gst
	s.Net.RetargetGST(gst)
	s.dutyRosterSet = false
}
