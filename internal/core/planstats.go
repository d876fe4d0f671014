package core

import (
	"time"

	"fargo/internal/ids"
	"fargo/internal/wire"
)

// Planner statistics: the per-core snapshot consumed by the autonomic layout
// planner's communication-graph collector (internal/plan, DESIGN.md §14).
// Each core reports the complets it hosts, the per-pair invocation meters it
// observed (recorded at the core hosting each pair's destination), its load
// and its free capacity; the collector aggregates the snapshots into one
// weighted graph keyed on complet identity.

// PlannerConfig enables the autonomic layout planner on a core built through
// the facade (fargo.Options.Planner). It is plain data — core cannot import
// internal/plan — and mirrors plan.Options; see there for field semantics.
type PlannerConfig struct {
	// Cores lists the member cores of the planning domain. Empty means the
	// facade fills in this core plus its seeded peers.
	Cores []ids.CoreID
	// Interval is the closed-loop period (0 = manual rounds only).
	Interval time.Duration
	// DryRun records proposals without moving anything.
	DryRun bool
	// MinGain is the minimum estimated cross-core invocations/second a move
	// must eliminate to be worth actuating (oscillation damping).
	MinGain float64
	// Cooldown is how long a moved complet is exempt from further planning.
	Cooldown time.Duration
	// MaxMovesPerRound caps the actuations of one planning round.
	MaxMovesPerRound int
}

// PlanStats snapshots this core for the planner's collector.
func (c *Core) PlanStats() wire.PlanStatsReply {
	infos := c.Complets()
	complets := make([]ids.CompletID, len(infos))
	for i, info := range infos {
		complets[i] = info.ID
	}
	return wire.PlanStatsReply{
		Core:         c.id,
		Complets:     complets,
		Pairs:        c.mon.PairStats(),
		Load:         len(infos),
		CapacityFree: c.capacityFree(),
	}
}
