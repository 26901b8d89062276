package experiments

import (
	"repro/internal/blktrace"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// TelemetryRun bundles one fully instrumented replay: the ordinary
// Measurement (identical to what MeasureAtLoad reports) plus the
// telemetry set the run recorded into and the power channel sampled
// online over [Start, Horizon).
type TelemetryRun struct {
	// Meas matches MeasureAtLoad's result for the same inputs.
	Meas *Measurement
	// Set holds the run's registry, spans, windows and power channel.
	Set *telemetry.Set
	// Meter is the wall meter the channel sampled with; a post-hoc
	// Meter.Measure(Start, Horizon) is bit-identical to the channel.
	Meter *powersim.Meter
	// Channel is the online-sampled wall power rail.
	Channel *telemetry.PowerChannel
	// Start and Horizon bound the sampling window on the virtual clock.
	Start, Horizon simtime.Time
}

// MeasureAtLoadTelemetry is MeasureAtLoad with full instrumentation:
// it provisions a fresh system, wires the engine, array and member
// disks into set, attaches an online wall-power channel, samples the
// registry on the set's cadence, and replays trace at the given load.
// The sampling horizon is the filtered trace duration plus two cadence
// windows of settle time; completions beyond it still run (the replay
// drains fully), they just fall outside the sampled series.
//
// set must be non-nil — callers that do not want telemetry should use
// MeasureAtLoad, which skips all of this.
func MeasureAtLoadTelemetry(cfg Config, kind ArrayKind, trace *blktrace.Trace, load float64, set *telemetry.Set) (*TelemetryRun, error) {
	cfg = cfg.normalize()
	e, a, err := NewSystem(cfg, kind)
	if err != nil {
		return nil, err
	}
	telemetry.WireEngine(set, e)
	a.AttachTelemetry(set)
	probe := telemetry.NewReplayProbe(set)

	f := replay.UniformFilter{Proportion: load}
	filtered := f.Apply(trace)
	probe.OnFilter(filtered.NumIOs(), trace.NumIOs()-filtered.NumIOs())

	start := e.Now()
	horizon := start.Add(filtered.Duration() + 2*set.Cadence())
	meter := powersim.DefaultMeter(a.PowerSource())
	meter.Seed = cfg.Seed
	ch := set.AddPowerChannel(e, "wall", meter, horizon)
	set.StartSampling(e, horizon)

	res, err := replay.Replay(e, a, filtered, replay.Options{Telemetry: probe})
	if err != nil {
		return nil, err
	}
	res.Filter = f.Name()
	// Close any partial sampling window so a run that drained before the
	// horizon still exports its tail.
	set.Flush(e.Now())

	// The Measurement mirrors measureReplay: the meter re-seeds per
	// Measure call, so this post-hoc read is independent of the online
	// channel and identical to an uninstrumented MeasureAtLoad.
	samples := meter.Measure(res.Start, res.End)
	watts := powersim.MeanWatts(samples)
	m := &Measurement{
		Load:   load,
		Result: res,
		Power:  watts,
		Eff:    metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples)),
	}
	return &TelemetryRun{Meas: m, Set: set, Meter: meter, Channel: ch, Start: start, Horizon: horizon}, nil
}
