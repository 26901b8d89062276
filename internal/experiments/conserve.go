package experiments

import (
	"repro/internal/blktrace"
	"repro/internal/conserve"
	"repro/internal/disksim"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// ConserveTechniques lists every technique Build provisions, in the
// order the energy studies report them.
var ConserveTechniques = []string{"always-on", "tpm", "drpm", "eraid", "pdc", "maid"}

// ConserveSpec parameterises one conservation-technique device stack.
// The zero value of every field selects the paper-default configuration
// the conservation study uses, so ConserveSpec{Technique: "tpm"}
// reproduces the study's TPM array exactly; the optimize search varies
// individual knobs from there.
type ConserveSpec struct {
	// Technique is one of ConserveTechniques.
	Technique string
	// Disks is the member count (MAID: data disks).  0 defaults to the
	// technique's study configuration (6; MAID: 5 data + cache).
	Disks int
	// Drive parameterises every member; a zero value (detected by
	// CapacityBytes == 0) defaults to Seagate7200.
	Drive disksim.HDDParams
	// ChunkBytes is the striping/cache granularity.  0 defaults 64 KiB.
	ChunkBytes int64

	// TPMTimeout is the idle spin-down threshold (tpm; also the default
	// for the PDC and MAID member timeouts).  0 defaults to 10s — pass a
	// sub-nanosecond positive value to approximate immediate spin-down.
	TPMTimeout simtime.Duration

	// DRPMStepDown is the idle window before dropping one RPM level;
	// 0 defaults to 2s.  DRPMLevels nil defaults to the four-step table.
	DRPMStepDown simtime.Duration
	DRPMLevels   []float64

	// ERAIDLowIOPS / ERAIDHighIOPS bound the offline hysteresis band
	// (0 defaults 20/60); ERAIDWindow is the evaluation interval (0
	// defaults 2s); ERAIDMaxOffline bounds the degraded set (0 defaults
	// 1; -1 never rests a member — the always-on eRAID baseline; values
	// above RAID-5 parity tolerance are rejected).
	ERAIDLowIOPS, ERAIDHighIOPS float64
	ERAIDWindow                 simtime.Duration
	ERAIDMaxOffline             int

	// PDCReorgInterval is the popularity re-ranking period (0 defaults
	// 5s); PDCSpinDownTimeout the member TPM timeout (0 defaults to
	// TPMTimeout); PDCMaxMigrations and PDCDecay keep their package
	// defaults (256, 0.5) when zero.
	PDCReorgInterval   simtime.Duration
	PDCSpinDownTimeout simtime.Duration
	PDCMaxMigrations   int
	PDCDecay           float64

	// MAIDCacheDisks (0 defaults 1), MAIDCacheChunks (0 defaults 4096)
	// and MAIDDataTimeout (0 defaults to TPMTimeout) shape the cache
	// tier.
	MAIDCacheDisks  int
	MAIDCacheChunks int
	MAIDDataTimeout simtime.Duration

	// Control, when non-nil, receives every policy decision (and can
	// veto them) — the optimize ledger and counterfactual replayer hook
	// in here.  Nil runs are completely unobserved.
	Control *conserve.Control
}

// withDefaults resolves zero fields to the study configuration.
func (s ConserveSpec) withDefaults() ConserveSpec {
	if s.Disks <= 0 {
		if s.Technique == "maid" {
			s.Disks = conserve.DefaultMAIDParams().DataDisks
		} else {
			s.Disks = 6
		}
	}
	if s.Drive.CapacityBytes == 0 {
		s.Drive = disksim.Seagate7200()
	}
	if s.ChunkBytes <= 0 {
		s.ChunkBytes = 64 << 10
	}
	if s.TPMTimeout <= 0 {
		s.TPMTimeout = 10 * simtime.Second
	}
	if s.DRPMStepDown <= 0 {
		s.DRPMStepDown = 2 * simtime.Second
	}
	if s.ERAIDLowIOPS <= 0 {
		s.ERAIDLowIOPS = conserve.DefaultERAIDParams().LowIOPS
	}
	if s.ERAIDHighIOPS <= 0 {
		s.ERAIDHighIOPS = conserve.DefaultERAIDParams().HighIOPS
	}
	if s.ERAIDWindow <= 0 {
		s.ERAIDWindow = conserve.DefaultERAIDParams().Window
	}
	if s.PDCReorgInterval <= 0 {
		s.PDCReorgInterval = 5 * simtime.Second
	}
	if s.PDCSpinDownTimeout <= 0 {
		s.PDCSpinDownTimeout = s.TPMTimeout
	}
	if s.MAIDCacheDisks <= 0 {
		s.MAIDCacheDisks = conserve.DefaultMAIDParams().CacheDisks
	}
	if s.MAIDCacheChunks <= 0 {
		s.MAIDCacheChunks = conserve.DefaultMAIDParams().CacheChunks
	}
	if s.MAIDDataTimeout <= 0 {
		s.MAIDDataTimeout = s.TPMTimeout
	}
	return s
}

// ConservationTrace synthesises the sparse web-server workload the
// conservation study (and the optimize harness) replays: ten virtual
// minutes of low-rate traffic with real idle gaps and a fully cacheable
// hot set.
func ConservationTrace(seed uint64) *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = seed
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 4
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}
