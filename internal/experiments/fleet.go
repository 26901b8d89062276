package experiments

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/simtime"
)

// FleetSeedStride separates the PCG seed ranges of fleet members.
// Member disks within one array are seeded drive.Seed + i*1000003 (see
// raid.NewHDDArray), so a stride of 1000003<<10 keeps every
// array's per-disk seed block disjoint for any member count below 1024
// — each array draws an independent variate sequence that depends only
// on its fleet index, never on worker count or run order.
const FleetSeedStride = 1000003 << 10

// NormalizeConfig fills zero fields of c with the defaults, exactly as
// the experiment harnesses do internally — exported for fleet-style
// callers that provision members one at a time and need the same
// effective configuration for seeding and metering.
func NormalizeConfig(c Config) Config { return c.normalize() }

// NewFleetMember provisions fleet member index: a pristine array of the
// given kind on a fresh engine, with member-disk seeds offset by
// index*FleetSeedStride.  Member 0 is NewSystem's system; every other
// member is the same hardware with an independent variate sequence.
func NewFleetMember(cfg Config, kind ArrayKind, index int) (*simtime.Engine, *raid.Array, error) {
	if index < 0 {
		return nil, nil, fmt.Errorf("experiments: negative fleet index %d", index)
	}
	cfg = cfg.normalize()
	e := simtime.NewEngine()
	params := raid.DefaultParams()
	switch kind {
	case SSDArray:
		params.Chassis = raid.SSDChassis()
		d := disksim.MemorightSLC32()
		d.Seed += uint64(index) * FleetSeedStride
		a, err := raid.NewSSDArray(e, params, cfg.SSDs, d)
		return e, a, err
	default:
		d := disksim.Seagate7200()
		d.Seed += uint64(index) * FleetSeedStride
		a, err := raid.NewHDDArray(e, params, cfg.HDDs, d)
		return e, a, err
	}
}
