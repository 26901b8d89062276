package conserve

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/simtime"
)

// Spec is the one configuration of a conservation technique.  Every
// technique device (NewERAIDArray, NewPDC, NewMAID) and the JBOD
// stacks the energy studies build read their knobs from it, and a
// field at zero (or below) takes its default (WithDefaults).  So
// Spec{Technique: "tpm"} is the TPM array the studies measure, and a
// search varies one knob at a time from there.
//
// What no study varies is fixed: every technique runs Drives
// disksim.Seagate7200 drives (MAID: MAIDDataDisks data disks plus its
// cache disks), and JBOD, PDC and MAID lay data out in 64 KiB chunks.
type Spec struct {
	// Technique names the technique: always-on, tpm, drpm, eraid, pdc
	// or maid.
	Technique string
	// SpinDownTimeout is the idle time before a disk spins down: every
	// tpm member, every PDC member and every MAID data disk (default
	// 10 s).
	SpinDownTimeout simtime.Duration
	// DRPMStepDown is the idle window before a DRPM disk drops one RPM
	// level (default 2 s); DRPMLevels are its speed fractions, fastest
	// first (default DefaultDRPMLevels).
	DRPMStepDown simtime.Duration
	DRPMLevels   []float64
	// ERAIDLowIOPS and ERAIDHighIOPS bound eRAID's hysteresis band: it
	// rests a member below the low rate and wakes it above the high one
	// (default 20 and 60), measured over ERAIDWindow (default 2 s).
	ERAIDLowIOPS, ERAIDHighIOPS float64
	ERAIDWindow                 simtime.Duration
	// PDCReorgInterval is how often PDC re-ranks chunk popularity and
	// migrates (default 5 s).
	PDCReorgInterval simtime.Duration
	// MAIDCacheDisks is MAID's always-on cache disk count (default 1).
	MAIDCacheDisks int
	// Control, when non-nil, observes and arbitrates every decision the
	// technique takes from construction on; nil runs are unobserved.
	// eRAID's load evaluator ticks once at t=0, so a control must be in
	// place before the first tick.
	Control *Control
}

// The fixed shape of every technique.
const (
	// Drives is the drive count of a JBOD, eRAID or PDC stack.
	Drives = 6
	// MAIDDataDisks is MAID's data disk count; its cache disks come on
	// top.
	MAIDDataDisks = 5

	// chunkBytes is the JBOD, PDC and MAID chunk: the striping,
	// migration and cache-directory granularity.
	chunkBytes = 64 << 10
	// pdcMaxMigrations bounds the chunks one PDC reorganisation moves;
	// pdcDecay multiplies access counts at each reorganisation, aging
	// history.
	pdcMaxMigrations = 256
	pdcDecay         = 0.5
	// maidCacheChunks bounds MAID's cache directory (LRU beyond it).
	maidCacheChunks = 4096
)

// DefaultDRPMLevels are four speed steps down to half speed.  They
// bottom out at the drive's MinRPMFraction: a deeper level would clamp
// silently and desynchronise the decision ledger from the spindle.
func DefaultDRPMLevels() []float64 { return []float64{1.0, 0.8, 0.65, 0.5} }

// WithDefaults resolves every field at zero or below to its default.
func (s Spec) WithDefaults() Spec {
	if s.SpinDownTimeout <= 0 {
		s.SpinDownTimeout = 10 * simtime.Second
	}
	if s.DRPMStepDown <= 0 {
		s.DRPMStepDown = 2 * simtime.Second
	}
	if len(s.DRPMLevels) == 0 {
		s.DRPMLevels = DefaultDRPMLevels()
	}
	if s.ERAIDLowIOPS <= 0 {
		s.ERAIDLowIOPS = 20
	}
	if s.ERAIDHighIOPS <= 0 {
		s.ERAIDHighIOPS = 60
	}
	if s.ERAIDWindow <= 0 {
		s.ERAIDWindow = 2 * simtime.Second
	}
	if s.PDCReorgInterval <= 0 {
		s.PDCReorgInterval = 5 * simtime.Second
	}
	if s.MAIDCacheDisks <= 0 {
		s.MAIDCacheDisks = 1
	}
	return s
}

// Validate rejects the one combination of knobs no technique runs:
// eRAID thresholds, defaults resolved, that leave no hysteresis band.
func (s Spec) Validate() error {
	if r := s.WithDefaults(); r.ERAIDHighIOPS <= r.ERAIDLowIOPS {
		return fmt.Errorf("conserve: eRAID thresholds inverted: low %v >= high %v", r.ERAIDLowIOPS, r.ERAIDHighIOPS)
	}
	return nil
}

// drive returns the parameters of a technique's i-th drive: the one
// model every technique runs, named, with its seed i strides on.
func drive(name string, i int, stride uint64) disksim.HDDParams {
	p := disksim.Seagate7200()
	p.Seed += uint64(i) * stride
	p.Name = name
	return p
}
