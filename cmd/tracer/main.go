// Command tracer is the TRACER command-line interface: it replaces the
// paper's Windows GUI as the operator-facing front end of the
// framework.  It builds trace repositories, runs load-controlled
// replay tests against the simulated arrays while metering power,
// queries the results database, regenerates the paper's evaluation
// artifacts and runs the conformance gates.
//
// Usage:
//
//	tracer collect   -repo DIR [-device hdd|ssd] [-size N] [-read F] [-random F] [-duration D] [-qd N] [-all] [-workers N]
//	tracer gen-real  -repo DIR [-device hdd|ssd] -kind web|cello|oltp
//	tracer repo      -repo DIR
//	tracer stats     -repo DIR -trace NAME
//	tracer analyze   -repo DIR -trace NAME | -in FILE [-out profile.json] [-name LABEL]
//	tracer replay    -repo DIR -trace NAME | -in FILE [-device hdd|ssd] [-loads 10,50,100] [-db FILE] [-workers N] [-telemetry-dir DIR [-cadence D]] [-cache-tier dram|ssd [-cache-mb N] [-cache-evict P] [-cache-admit P]]
//	tracer query     [-db FILE] [-device NAME] [-minload F] [-maxload F]
//	tracer slice     -repo DIR -trace NAME -to D [-from D]
//	tracer merge     -repo DIR -traces A,B[,C...] [-label L]
//	tracer remap     -repo DIR -trace NAME -from-bytes N -to-bytes N
//	tracer dump      -repo DIR -trace NAME [-n 10]
//	tracer cachestudy [-in FILE | -repo DIR -trace NAME] [-device hdd|ssd] [-loads 50,100] [-specs uncached,dram:32,ssd:256] [-workers N] [-json FILE]
//	tracer fleet     -arrays N [-workers W] [-policy P] [-device hdd|ssd] [-duration D] [-iops F] [-admit-rate F] [-power-cap W] [-telemetry-dir DIR] [-slo SPEC [-watch]] [-fail A@T[:D],... | -mtbf D]
//	tracer report    [-dir DIR] [-alert SEQ]
//	tracer verify    [-golden DIR] [-update] [-telemetry-dir DIR]
//	tracer paper     [-run all|NAME[,NAME...]] [-duration D] [-workers N] [-list]
//	tracer optimize  [-policy P[,P...]] [-space SPEC] [-driver grid|evolve] [-in FILE] [-load PCT] [-workers N] [-ledger-dir DIR] [-telemetry-dir DIR]
//	tracer whatif    -ledger FILE (-decision N | -list) [-in FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/parsweep"
	"repro/internal/replay"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "collect":
		return cmdCollect(args[1:], out)
	case "gen-real":
		return cmdGenReal(args[1:], out)
	case "repo":
		return cmdRepo(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "replay":
		return cmdReplay(args[1:], out)
	case "query":
		return cmdQuery(args[1:], out)
	case "slice":
		return cmdSlice(args[1:], out)
	case "merge":
		return cmdMerge(args[1:], out)
	case "remap":
		return cmdRemap(args[1:], out)
	case "dump":
		return cmdDump(args[1:], out)
	case "cachestudy":
		return cmdCacheStudy(args[1:], out)
	case "fleet":
		return cmdFleet(args[1:], out)
	case "report":
		return cmdReport(args[1:], out)
	case "verify":
		return cmdVerify(args[1:], out)
	case "paper":
		return cmdPaper(args[1:], out)
	case "optimize":
		return cmdOptimize(args[1:], out)
	case "whatif":
		return cmdWhatIf(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `tracer — load-controllable energy-efficiency evaluation for storage systems
subcommands: collect, gen-real, repo, stats, analyze, replay, query, slice, merge, remap, dump, cachestudy, fleet, report, verify, paper, optimize, whatif`)
}

// cmdCollect builds peak synthetic traces into a repository.
func cmdCollect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	size := fs.Int64("size", 4096, "request size in bytes")
	read := fs.Float64("read", 0.5, "read ratio [0,1]")
	random := fs.Float64("random", 0.5, "random ratio [0,1]")
	duration := fs.Duration("duration", 2_000_000_000, "collection duration (virtual time)")
	qd := fs.Int("qd", 8, "outstanding IOs (queue depth)")
	all := fs.Bool("all", false, "collect the paper's full 125-mode sweep")
	seed := fs.Uint64("seed", 1, "generator seed")
	workers := fs.Int("workers", 0, "parallel collection cells (0 = all cores, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	modes := []synth.Mode{{RequestBytes: *size, ReadRatio: *read, RandomRatio: *random}}
	if *all {
		modes = synth.PaperModes()
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	// Collection cells (one fresh array each) fan across the worker
	// pool — the -all sweep is 125 modes; storing stays sequential so
	// repository writes and output order are untouched.
	traces, err := parsweep.Map(context.Background(),
		parsweep.Options{
			Workers: cfg.Workers,
			Label:   func(i int) string { return fmt.Sprintf("collect %s", modes[i]) },
		},
		len(modes),
		func(i int) (*blktrace.Trace, error) {
			s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind})
			if err != nil {
				return nil, err
			}
			return synth.Collect(s.Engine, s.Device, synth.CollectParams{
				Mode:            modes[i],
				Duration:        simtime.FromStd(*duration),
				QueueDepth:      *qd,
				WorkingSetBytes: cfg.WorkingSet,
				Seed:            *seed,
			})
		})
	if err != nil {
		return err
	}
	for i, tr := range traces {
		entry, err := repo.StoreSynthetic(kind.String(), modes[i], tr)
		if err != nil {
			return err
		}
		st := blktrace.ComputeStats(tr)
		fmt.Fprintf(out, "collected %s: %d IOs, %.0f IOPS peak, %.2f MBPS peak\n",
			filepath.Base(entry.Path), st.IOs, st.MeanIOPS, st.MeanMBPS)
	}
	return nil
}

// cmdGenReal synthesises the real-world-like traces into a repository.
func cmdGenReal(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen-real", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	device := fs.String("device", "hdd", "array kind the trace is labelled for")
	kindName := fs.String("kind", "web", "trace kind: web, cello or oltp")
	seed := fs.Uint64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	// Every flag is checked before the repository is opened, because
	// Open creates -repo.
	var tr *blktrace.Trace
	var label string
	switch *kindName {
	case "web":
		p := synth.DefaultWebServer()
		p.Seed = *seed
		tr, label = synth.WebServerTrace(p), "web-o4"
	case "cello":
		p := synth.DefaultCello()
		p.Seed = *seed
		tr, label = synth.CelloTrace(p), "cello99"
	case "oltp":
		p := synth.DefaultOLTP()
		p.Seed = *seed
		tr, label = synth.OLTPTrace(p), "oltp"
	default:
		return fmt.Errorf("unknown real-trace kind %q (want web, cello or oltp)", *kindName)
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	entry, err := repo.StoreReal(kind.String(), label, tr)
	if err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	fmt.Fprintf(out, "generated %s: %d IOs, read %.1f%%, mean req %.1f KB\n",
		filepath.Base(entry.Path), st.IOs, st.ReadRatio*100, st.AvgRequestBytes/1024)
	return nil
}

// cmdRepo lists the repository.
func cmdRepo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repo", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	entries, err := repo.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintln(out, "(empty repository)")
		return nil
	}
	for _, e := range entries {
		switch {
		case e.IsReal():
			fmt.Fprintf(out, "%s\treal\t%s\n", filepath.Base(e.Path), e.RealLabel)
		case e.IsDerived():
			fmt.Fprintf(out, "%s\tderived\tprofile %s seed %d\n", filepath.Base(e.Path), e.ProfileLabel, e.Seed)
		default:
			fmt.Fprintf(out, "%s\tsynthetic\t%s\n", filepath.Base(e.Path), e.Mode)
		}
	}
	return nil
}

// cmdStats prints trace statistics.
func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("stats: -trace is required")
	}
	tr, err := loadTrace(*dir, *name, "")
	if err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	fmt.Fprintf(out, "trace %s (device %s)\n", *name, tr.Device)
	fmt.Fprintf(out, "bunches %d, IOs %d, duration %.3fs\n", st.Bunches, st.IOs, st.Duration.Seconds())
	fmt.Fprintf(out, "read ratio %.2f%%, random ratio %.2f%%, mean request %.1f KB\n",
		st.ReadRatio*100, st.RandomRatio*100, st.AvgRequestBytes/1024)
	fmt.Fprintf(out, "offered load: %.1f IOPS, %.2f MBPS, max concurrency %d\n",
		st.MeanIOPS, st.MeanMBPS, st.MaxBunchSize)
	return nil
}

// cmdReplay runs energy-efficiency tests, the paper's Section III-A
// operation: each load level replays the trace on its own fresh array
// while the wall meter samples it (experiments.Measure), prints one
// row and, with -db, stores one record.  Levels fan out across
// -workers and print in input order.
//
// -telemetry-dir instruments a single-level run with every telemetry
// producer (replay probe, per-disk spans, power channel, kernel
// gauges) and exports the artifact directory: summary.json,
// series.csv, events.jsonl, power_wall.csv and a Chrome trace that
// opens in Perfetto.  `tracer report -dir DIR` renders it.
//
// -cache-tier interposes a writeback cache (see internal/cache) between
// the replay and the array; the remaining -cache-* flags tune it and
// are rejected without a tier, so a typo cannot silently replay
// uncached.
func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "replay a trace file directly instead of a repository entry")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	loadsStr := fs.String("loads", "100", "comma-separated load percentages (e.g. 10,50,100)")
	dbPath := fs.String("db", "", "results database file (JSON); empty disables persistence")
	workers := fs.Int("workers", 0, "parallel load-level replays (0 = all cores, 1 = sequential)")
	telemetryDir := fs.String("telemetry-dir", "", "artifact output directory for a single load (empty disables)")
	cadence := fs.Duration("cadence", 1_000_000_000, "time-series sampling cadence (sim time)")
	cf := registerCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*name == "") == (*in == "") {
		return fmt.Errorf("replay: exactly one of -trace or -in is required")
	}
	loads, err := replay.ParseLoads(*loadsStr)
	if err != nil {
		return fmt.Errorf("replay: -loads: %w", err)
	}
	var set *telemetry.Set
	if *telemetryDir != "" {
		if len(loads) > 1 {
			return fmt.Errorf("replay: -telemetry-dir instruments one load, but -loads %s names %d", *loadsStr, len(loads))
		}
		set = telemetry.New(telemetry.Options{Cadence: simtime.FromStd(*cadence)})
	}
	if err := cf.validate("replay", fs); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	tr, err := loadTrace(*dir, *name, *in)
	if err != nil {
		return err
	}
	var db *host.DB
	if *dbPath != "" {
		if db, err = host.LoadDB(*dbPath); err != nil {
			return err
		}
	}
	spec := experiments.StackSpec{Kind: kind}
	system := kind.String()
	if *cf.tier != "" {
		cs := cf.spec()
		spec.Cache = &cs
		system += "+" + cs.Label()
	}

	// Each load replays on its own fresh stack, which leaves its cache
	// tier's counters in its own slot of tiers.
	tiers := make([]cache.Stats, len(loads))
	ms, err := parsweep.Map(context.Background(),
		parsweep.Options{
			Workers: *workers,
			Label:   func(i int) string { return fmt.Sprintf("load %v", loads[i]) },
		},
		len(loads),
		func(i int) (*experiments.Measurement, error) {
			s, err := experiments.Build(experiments.DefaultConfig(), spec)
			if err != nil {
				return nil, err
			}
			m, err := experiments.Measure(s, tr, replay.UniformFilter{Proportion: loads[i]}, set)
			if s.Cache != nil {
				tiers[i] = s.Cache.Stats()
			}
			return m, err
		})
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "load%\tIOPS\tMBPS\tresp(ms)\twatts\tIOPS/W\tMBPS/kW")
	for i, m := range ms {
		res, p, eff := m.Result, m.Power, m.Eff
		fmt.Fprintf(out, "%.0f\t%.1f\t%.3f\t%.2f\t%.1f\t%.3f\t%.2f\n",
			loads[i]*100, res.IOPS, res.MBPS, res.MeanResponse.Seconds()*1000, p.Watts, eff.IOPSPerWatt, eff.MBPSPerKW)
		if spec.Cache != nil {
			st := tiers[i]
			fmt.Fprintf(out, "cache: %.1f%% hit (%d/%d), %d writebacks (%.1f KiB), %d evictions\n",
				st.HitRate()*100, st.Hits, st.Hits+st.Misses,
				st.Writebacks, float64(st.WritebackBytes)/1024, st.Evictions)
		}
		if db == nil {
			continue
		}
		var volts, amps float64
		if len(p.Samples) > 0 {
			volts = p.Samples[0].Volts
			amps = p.Watts / volts
		}
		db.Insert(host.Record{
			Device:    system,
			TraceName: *name + *in, // exactly one is set
			Mode:      host.ModeVector{LoadProportion: loads[i]},
			Power:     host.PowerData{MeanWatts: p.Watts, MeanVolts: volts, MeanAmps: amps, EnergyJ: p.EnergyJ, Samples: len(p.Samples)},
			Perf: host.PerfData{
				IOPS: res.IOPS, MBPS: res.MBPS,
				MeanResponseMs: res.MeanResponse.Seconds() * 1000,
				MaxResponseMs:  res.MaxResponse.Seconds() * 1000,
				DurationS:      res.Duration().Seconds(), IOs: res.Completed,
			},
			Efficiency: host.EfficiencyData{IOPSPerWatt: eff.IOPSPerWatt, MBPSPerKW: eff.MBPSPerKW},
		})
	}
	if db != nil {
		if err := db.Save(*dbPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved %d records to %s\n", db.Len(), *dbPath)
	}
	if set != nil {
		if err := set.WriteDir(*telemetryDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
			*telemetryDir, *telemetryDir)
	}
	return nil
}

// loadTrace reads a command's trace: the -in file, or the -trace entry
// of the -repo repository.
func loadTrace(repoDir, name, in string) (*blktrace.Trace, error) {
	if in != "" {
		return blktrace.ReadFile(in)
	}
	repo, err := repository.Open(repoDir)
	if err != nil {
		return nil, err
	}
	return repo.Load(name)
}

// cmdQuery lists stored records.
func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dbPath := fs.String("db", "results.json", "results database file")
	device := fs.String("device", "", "filter by device")
	minLoad := fs.Float64("minload", 0, "minimum load proportion")
	maxLoad := fs.Float64("maxload", 0, "maximum load proportion (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := host.LoadDB(*dbPath)
	if err != nil {
		return err
	}
	recs := db.Select(host.Query{Device: *device, MinLoad: *minLoad, MaxLoad: *maxLoad})
	if len(recs) == 0 {
		fmt.Fprintln(out, "(no records)")
		return nil
	}
	fmt.Fprintln(out, "id\ttime\tdevice\ttrace\tload%\tIOPS\tMBPS\twatts\tIOPS/W\tMBPS/kW")
	for _, r := range recs {
		fmt.Fprintf(out, "%d\t%s\t%s\t%s\t%.0f\t%.1f\t%.3f\t%.1f\t%.3f\t%.2f\n",
			r.ID, r.TestTime.Format("2006-01-02 15:04:05"), r.Device, r.TraceName,
			r.Mode.LoadProportion*100, r.Perf.IOPS, r.Perf.MBPS,
			r.Power.MeanWatts, r.Efficiency.IOPSPerWatt, r.Efficiency.MBPSPerKW)
	}
	return nil
}
