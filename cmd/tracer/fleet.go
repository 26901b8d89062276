package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// cmdFleet simulates a fleet of independent arrays behind a front-end
// router: a synthesized (or replayed) client stream is admitted through
// an optional token bucket, placed onto arrays by the chosen policy,
// and each array advances on its own event loop under the shared-clock
// coordinator.  Results are byte-identical at any -workers count.
func cmdFleet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	arrays := fs.Int("arrays", 16, "number of arrays in the fleet")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	policyName := fs.String("policy", "round-robin", "placement policy: round-robin, least-loaded, weighted or affinity")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	duration := fs.Duration("duration", 1_000_000_000, "synthetic stream duration (sim time)")
	iops := fs.Float64("iops", 0, "offered fleet-wide IOPS (0 = 64 per array)")
	size := fs.Int64("size", 16<<10, "request size in bytes")
	read := fs.Float64("read", 0.6, "read ratio [0,1]")
	clients := fs.Int("clients", 1024, "distinct client IDs in the synthetic stream")
	window := fs.Duration("window", 10_000_000, "router decision window (sim time)")
	admitRate := fs.Float64("admit-rate", 0, "token-bucket admission rate in IOPS (0 = no admission control)")
	admitBurst := fs.Float64("admit-burst", 0, "token-bucket burst (0 = one second at -admit-rate)")
	powerCap := fs.Float64("power-cap", 0, "fleet power cap in watts for headroom reporting (0 = none)")
	seed := fs.Uint64("seed", 1, "fleet seed (streams and arrays derive from it)")
	dir := fs.String("repo", "traces", "trace repository directory (with -trace)")
	name := fs.String("trace", "", "replay this repository trace instead of synthesizing a stream")
	telemetryDir := fs.String("telemetry-dir", "", "write telemetry artifacts here (empty disables)")
	sloPath := fs.String("slo", "", "SLO spec JSON to evaluate burn-rate alerts against (\"example\" for the built-in spec)")
	fail := fs.String("fail", "", "inject disk failures: ARRAY@TIME[:DISK],... (e.g. 12@30s); each triggers a background rebuild")
	mtbf := fs.Duration("mtbf", 0, "draw a seeded failure scenario with this mean time between array failures (instead of -fail)")
	watch := fs.Bool("watch", false, "live-refresh the SLO budget table while the run progresses (requires -slo)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arrays < 1 {
		return fmt.Errorf("fleet: bad array count %d", *arrays)
	}
	if *workers < 0 {
		return fmt.Errorf("fleet: bad worker count %d", *workers)
	}
	if *admitRate < 0 {
		return fmt.Errorf("fleet: bad admission rate %v (want IOPS >= 0)", *admitRate)
	}
	if *admitBurst != 0 && *admitRate == 0 {
		return fmt.Errorf("fleet: -admit-burst requires -admit-rate")
	}
	if *powerCap < 0 {
		return fmt.Errorf("fleet: bad power cap %v W", *powerCap)
	}
	if *watch && *sloPath == "" {
		return fmt.Errorf("fleet: -watch needs an SLO spec to watch (-slo)")
	}
	if *fail != "" && *mtbf != 0 {
		return fmt.Errorf("fleet: -fail and -mtbf are mutually exclusive")
	}
	if *mtbf < 0 {
		return fmt.Errorf("fleet: bad MTBF %v", *mtbf)
	}
	if *name != "" {
		// Synthesis knobs are dead weight under -trace; a silently
		// ignored flag would hide an operator mistake.
		synthOnly := map[string]bool{"duration": true, "iops": true, "size": true, "read": true, "clients": true}
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if stray == "" && synthOnly[f.Name] {
				stray = f.Name
			}
		})
		if stray != "" {
			return fmt.Errorf("fleet: -%s only applies to the synthetic stream and conflicts with -trace", stray)
		}
	} else {
		if *read < 0 || *read > 1 {
			return fmt.Errorf("fleet: bad read ratio %v (want [0,1])", *read)
		}
		if *size <= 0 {
			return fmt.Errorf("fleet: bad request size %d", *size)
		}
		if *clients < 1 {
			return fmt.Errorf("fleet: bad client count %d", *clients)
		}
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	pol, err := fleet.PolicyFromString(*policyName)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	f, err := fleet.New(cfg, kind, *arrays, *workers)
	if err != nil {
		return err
	}

	var stream fleet.Stream
	if *name != "" {
		tr, err := loadTrace(*dir, *name, "")
		if err != nil {
			return err
		}
		stream = fleet.NewTraceStream(tr)
	} else {
		rate := *iops
		if rate <= 0 {
			rate = 64 * float64(*arrays)
		}
		stream = fleet.NewSynthStream(fleet.SynthParams{
			Duration:   simtime.FromStd(*duration),
			MeanIOPS:   rate,
			Clients:    *clients,
			Size:       *size,
			ReadRatio:  *read,
			WorkingSet: cfg.WorkingSet,
			Seed:       *seed,
		})
	}

	var set *telemetry.Set
	if *telemetryDir != "" {
		set = telemetry.New(telemetry.Options{})
	}
	var bucket *fleet.TokenBucket
	if *admitRate > 0 {
		bucket = fleet.NewTokenBucket(*admitRate, *admitBurst)
	}
	var sloEng *slo.Engine
	if *sloPath != "" {
		spec, err := slo.LoadSpec(*sloPath)
		if err != nil {
			return err
		}
		if sloEng, err = slo.NewEngine(spec); err != nil {
			return err
		}
	}
	var faults []fleet.Fault
	if *fail != "" {
		if faults, err = fleet.ParseFaults(*fail); err != nil {
			return err
		}
	} else if *mtbf > 0 {
		horizon := simtime.FromStd(*duration)
		if d, ok := stream.(interface{ Duration() simtime.Duration }); ok {
			horizon = d.Duration()
		}
		disks := cfg.HDDs
		if kind == experiments.SSDArray {
			disks = cfg.SSDs
		}
		faults = fleet.FaultsFromMTBF(*arrays, disks, simtime.FromStd(*mtbf), horizon, *seed)
		fmt.Fprintf(out, "mtbf %v over %v: %d failure(s) drawn\n", *mtbf, horizon, len(faults))
	}
	var watcher *sloWatcher
	var onBarrier func(simtime.Time)
	if *watch {
		watcher = newSLOWatcher(out, sloEng)
		onBarrier = watcher.OnBarrier
	}
	res, err := f.Run(stream, fleet.Options{
		Policy:    pol,
		Admission: bucket,
		Window:    simtime.FromStd(*window),
		Telemetry: set,
		PowerCapW: *powerCap,
		SLO:       sloEng,
		Faults:    faults,
		OnBarrier: onBarrier,
	})
	if err != nil {
		return err
	}
	if watcher != nil {
		watcher.Final()
	}
	if set != nil {
		if err := set.WriteDir(*telemetryDir); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "fleet: %d %s arrays, %d workers, policy %s, %d windows\n",
		res.Arrays, kind, res.Workers, res.Policy, res.Windows)
	fmt.Fprintf(out, "offered %d, admitted %d, rejected %d (%.2f%%), completed %d\n",
		res.Offered, res.Admitted, res.Rejected, res.RejectRate*100, res.Completed)
	fmt.Fprintf(out, "throughput: %.1f IOPS, %.3f MBPS\n", res.IOPS, res.MBPS)
	fmt.Fprintf(out, "response ms: mean %.2f, p50 %.2f, p99 %.2f, p999 %.2f, max %.2f\n",
		res.MeanResponse.Seconds()*1000, res.P50Response.Seconds()*1000,
		res.P99Response.Seconds()*1000, res.P999Response.Seconds()*1000,
		res.MaxResponse.Seconds()*1000)
	fmt.Fprintf(out, "power: %.1f W mean, %.1f J, %.3f IOPS/W, %.2f MBPS/kW\n",
		res.MeanWatts, res.EnergyJ, res.IOPSPerWatt, res.MBPSPerKW)
	if res.PowerCapW > 0 {
		fmt.Fprintf(out, "power cap %.1f W: headroom %.1f W\n", res.PowerCapW, res.HeadroomW)
	}
	for _, cl := range res.PerClass {
		fmt.Fprintf(out, "class %s: %d done, response ms p50 %.2f, p99 %.2f, p999 %.2f, max %.2f\n",
			cl.Class, cl.Completed, cl.P50Response.Seconds()*1000, cl.P99Response.Seconds()*1000,
			cl.P999Response.Seconds()*1000, cl.MaxResponse.Seconds()*1000)
	}
	for _, ft := range res.Faults {
		switch {
		case ft.Error != "":
			fmt.Fprintf(out, "fault array %d disk %d: %s\n", ft.Array, ft.Disk, ft.Error)
		case ft.RecoveredAt > 0:
			fmt.Fprintf(out, "fault array %d disk %d: failed %s, rebuilt by %s\n",
				ft.Array, ft.Disk, formatSim(ft.FailedAt), formatSim(ft.RecoveredAt))
		default:
			fmt.Fprintf(out, "fault array %d disk %d: failed %s, still rebuilding at run end\n",
				ft.Array, ft.Disk, formatSim(ft.FailedAt))
		}
	}
	if sloEng != nil && watcher == nil {
		st := sloEng.Snapshot()
		fmt.Fprintf(out, "slo %s: %d alert(s), %d firing at end\n", st.Spec, st.Alerts, st.Firing)
	}
	if set != nil {
		fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
			*telemetryDir, *telemetryDir)
	}
	return nil
}
