package experiments

import (
	"repro/internal/blktrace"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// ConserveTechniques lists every technique Build provisions, in the
// order the energy studies report them.
var ConserveTechniques = []string{"always-on", "tpm", "drpm", "eraid", "pdc", "maid"}

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
