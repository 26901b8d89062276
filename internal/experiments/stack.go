package experiments

import (
	"fmt"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/conserve"
	"repro/internal/disksim"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
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

// StackSpec declares one system under test.  The zero value is the
// six-drive RAID-5 HDD array of Table II.
type StackSpec struct {
	// Kind selects the RAID-5 HDD or SSD array.  It is ignored when
	// Conserve names a technique.
	Kind ArrayKind
	// Member offsets the Kind array's member-disk seeds by
	// Member*FleetSeedStride: fleet member i is the same hardware with
	// an independent variate sequence.  Member 0 is the single-array
	// system every experiment measures.
	Member int
	// Conserve, when its Technique is set, builds that conservation
	// technique's stack instead of the Kind array.
	Conserve conserve.Spec
	// Cache, when non-nil, fronts whichever base device was built with
	// a cache tier.  A disabled spec (&CacheSpec{}) still interposes a
	// real pass-through cache.Cache, whose results are byte-identical
	// to the bare base device's.
	Cache *CacheSpec
}

// Stack is one provisioned system under test on its own fresh engine.
// A stack is replayed (and measured) once.
type Stack struct {
	Engine *simtime.Engine
	// Device is the front device a replay submits to: the cache tier
	// when there is one, else the array or technique device.
	Device storage.Device
	// Array is the RAID-5 array of a Kind stack; nil for a
	// conservation technique.
	Array *raid.Array
	// Cache is the front tier when the spec asked for one.
	Cache *cache.Cache
	// HDDs are a technique's member drives (MAID: cache first, then
	// data), for wear accounting and invariant checks.  A Kind array's
	// members are Array.Disks().
	HDDs []*disksim.HDD
	// At most one policy pointer is set, for its technique.
	MAID  *conserve.MAID
	PDC   *conserve.PDC
	ERAID *conserve.ERAIDArray

	// source is the front device's wall-power source.  A bare array
	// leaves it nil and PowerSource builds it on demand: a fleet
	// provisions a thousand arrays and meters none of them here.
	source powersim.Source
	// seed seeds the wall meter Measure reads (Config.Seed).
	seed uint64
}

// PowerSource reports the wall power of the whole stack: the base
// device plus any cache tier.
func (s Stack) PowerSource() powersim.Source {
	if s.source != nil {
		return s.source
	}
	return s.Array.PowerSource()
}

// WearCounts totals the spindle wear the policies inflicted across
// HDDs: spin-up cycles (the dominant mechanical cost) and RPM shifts.
func (s Stack) WearCounts() (spinUps, rpmShifts int64) {
	for _, h := range s.HDDs {
		st := h.Stats()
		spinUps += st.SpinUps
		rpmShifts += st.RPMShifts
	}
	return spinUps, rpmShifts
}

// Build provisions spec on a fresh engine.  Member-disk seeds derive
// from the spec alone, never from run order or worker count, and the
// stack's meter is seeded from cfg.Seed.
func Build(cfg Config, spec StackSpec) (Stack, error) {
	if spec.Member < 0 {
		return Stack{}, fmt.Errorf("experiments: negative fleet member %d", spec.Member)
	}
	if spec.Cache != nil {
		if err := spec.Cache.Validate(); err != nil {
			return Stack{}, err
		}
	}
	cfg = cfg.normalize()
	s := Stack{Engine: simtime.NewEngine(), seed: cfg.Seed}
	var err error
	if spec.Conserve.Technique != "" {
		err = s.buildConserve(spec.Conserve)
	} else {
		err = s.buildArray(cfg, spec.Kind, spec.Member)
	}
	if err != nil {
		return Stack{}, err
	}
	if spec.Cache != nil {
		c, err := cache.New(s.Engine, s.Device, s.PowerSource(), spec.Cache.Params())
		if err != nil {
			return Stack{}, err
		}
		s.Device, s.Cache, s.source = c, c, c.PowerSource()
	}
	return s, nil
}

// buildArray provisions the RAID-5 array of the given kind, with
// member-disk seeds offset by member*FleetSeedStride.
func (s *Stack) buildArray(cfg Config, kind ArrayKind, member int) error {
	params := raid.DefaultParams()
	var err error
	switch kind {
	case SSDArray:
		params.Chassis = raid.SSDChassis()
		d := disksim.MemorightSLC32()
		d.Seed += uint64(member) * FleetSeedStride
		s.Array, err = raid.NewSSDArray(s.Engine, params, cfg.SSDs, d)
	default:
		d := disksim.Seagate7200()
		d.Seed += uint64(member) * FleetSeedStride
		s.Array, err = raid.NewHDDArray(s.Engine, params, cfg.HDDs, d)
	}
	s.Device = s.Array
	return err
}

// buildConserve provisions the device stack for one technique.  Member
// seeds derive from the drive seed exactly as the conservation study's
// builder always has, so a default spec reproduces its measurements
// bit-for-bit.
func (s *Stack) buildConserve(spec conserve.Spec) error {
	engine := s.Engine
	switch spec.Technique {
	case "always-on", "tpm", "drpm":
		spec = spec.WithDefaults()
		members := make([]conserve.Member, conserve.Drives)
		for i := range members {
			p := disksim.Seagate7200()
			p.Seed += uint64(i) * 104729
			hdd := disksim.NewHDD(engine, p)
			s.HDDs = append(s.HDDs, hdd)
			switch spec.Technique {
			case "tpm":
				m := conserve.NewManagedDisk(engine, hdd, spec.SpinDownTimeout)
				m.AttachDecisions(spec.Control, "tpm", i)
				members[i] = m
			case "drpm":
				d := conserve.NewDRPMDisk(engine, hdd, spec.DRPMLevels, spec.DRPMStepDown)
				d.AttachDecisions(spec.Control, i)
				members[i] = d
			default:
				members[i] = hdd
			}
		}
		jbod, err := conserve.NewJBOD(members)
		if err != nil {
			return err
		}
		s.Device, s.source = jbod, jbod.PowerSource()
	case "eraid":
		arr, err := conserve.NewERAIDArray(engine, spec)
		if err != nil {
			return err
		}
		s.Device, s.source, s.ERAID, s.HDDs = arr, arr.PowerSource(), arr, arr.HDDs()
	case "pdc":
		pdc := conserve.NewPDC(engine, spec)
		s.Device, s.source, s.PDC, s.HDDs = pdc, pdc.PowerSource(), pdc, pdc.HDDs()
	case "maid":
		maid := conserve.NewMAID(engine, spec)
		s.Device, s.source, s.MAID, s.HDDs = maid, maid.PowerSource(), maid, maid.MemberHDDs()
	default:
		return fmt.Errorf("unknown technique %q", spec.Technique)
	}
	return nil
}

// Measure applies f to trace, replays the result through the stack's
// front device and meters the stack's wall power over the run.  f is a
// filter rather than a load because the ablations replay random,
// interval-scaled and regrouped variants; Measurement.Load is set for
// the paper's uniform filter.
//
// A non-nil set instruments the run: the engine, array and cache
// probes, the replay probe with filter pass/drop counts, an online
// "wall" power channel (plus a "cache" channel for a real tier), and
// registry sampling up to a horizon of the filtered trace's duration
// plus two cadence windows.  Completions beyond the horizon still run;
// they just fall outside the sampled series.  The post-hoc reading is
// powersim.Read with Config.Seed, so it is identical with and without
// a set.
func Measure(s Stack, trace *blktrace.Trace, f replay.Filter, set *telemetry.Set) (*Measurement, error) {
	var probe *telemetry.ReplayProbe
	if set != nil {
		telemetry.WireEngine(set, s.Engine)
		if s.Array != nil {
			s.Array.AttachTelemetry(set)
		}
		if s.Cache != nil {
			s.Cache.AttachTelemetry(set)
		}
		probe = telemetry.NewReplayProbe(set)
	}
	filtered := f.Apply(trace)
	probe.OnFilter(filtered.NumIOs(), trace.NumIOs()-filtered.NumIOs())

	if set != nil {
		horizon := s.Engine.Now().Add(filtered.Duration() + 2*set.Cadence())
		wall := powersim.DefaultMeter(s.PowerSource())
		wall.Seed = s.seed
		set.AddPowerChannel(s.Engine, "wall", wall, horizon)
		if s.Cache != nil {
			if tier := s.Cache.TierSource(); tier != nil {
				set.AddPowerChannel(s.Engine, "cache", powersim.DefaultMeter(tier), horizon)
			}
		}
		set.StartSampling(s.Engine, horizon)
	}

	res, err := replay.Replay(s.Engine, s.Device, filtered, replay.Options{Telemetry: probe})
	if err != nil {
		return nil, err
	}
	res.Filter = f.Name()
	if set != nil {
		// Close any partial sampling window so a run that drained
		// before the horizon still exports its tail.
		set.Flush(s.Engine.Now())
	}

	p := powersim.Read(s.PowerSource(), s.seed, res.Start, res.End)
	m := &Measurement{
		Result: res,
		Power:  p,
		Eff:    metrics.NewEfficiency(res.IOPS, res.MBPS, p.Watts, p.EnergyJ),
	}
	if uf, ok := f.(replay.UniformFilter); ok {
		m.Load = uf.Proportion
	}
	return m, nil
}
