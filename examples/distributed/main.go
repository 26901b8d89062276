// Distributed runs the full Fig. 3 topology in one process over
// loopback TCP: a workload-generator agent owning the simulated RAID-5
// array and a trace repository, a power-analyzer agent aggregating the
// metered samples, and an evaluation host that launches tests and
// joins performance with power into database records.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/netproto"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/synth"
)

func main() {
	// Build a small trace repository for the generator to serve.
	dir, err := os.MkdirTemp("", "tracer-repo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	repo, err := repository.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := experiments.DefaultConfig()
	s, err := experiments.Build(cfg, experiments.StackSpec{Kind: experiments.HDDArray})
	if err != nil {
		log.Fatal(err)
	}
	mode := synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 0.5}
	trace, err := synth.Collect(s.Engine, s.Device, synth.CollectParams{
		Mode: mode, Duration: 2 * simtime.Second, QueueDepth: 8, WorkingSetBytes: 8 << 30, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	entry, err := repo.StoreSynthetic("raid5-hdd", mode, trace)
	if err != nil {
		log.Fatal(err)
	}
	traceName := filepath.Base(entry.Path)

	// Power analyzer agent (multi-channel KS706 stand-in).
	analyzer := cluster.NewAnalyzerAgent(nil)
	aAddr, err := analyzer.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer analyzer.Close()

	// Workload generator agent: owns the array, taps its wall power.
	factory := func() (*cluster.SystemUnderTest, error) {
		s, err := experiments.Build(cfg, experiments.StackSpec{Kind: experiments.HDDArray})
		if err != nil {
			return nil, err
		}
		return &cluster.SystemUnderTest{Engine: s.Engine, Device: s.Device, Power: s.PowerSource(), Name: "raid5-hdd"}, nil
	}
	generator := cluster.NewGeneratorAgent(repo, factory, aAddr.String(), "hdd-array", nil)
	gAddr, err := generator.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer generator.Close()
	fmt.Printf("generator on %s, analyzer on %s\n", gAddr, aAddr)

	// Evaluation host: drive tests at three load levels.
	db := host.NewDB()
	h, err := cluster.Dial(gAddr.String(), aAddr.String(), db)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

	fmt.Println("load%\tIOPS\tMBPS\twatts\tamps\tIOPS/W")
	for _, load := range []float64{0.25, 0.5, 1.0} {
		outcome, err := h.RunTest(
			netproto.StartTest{TraceName: traceName, LoadProportion: load},
			"raid5-hdd",
			host.ModeVector{RequestBytes: mode.RequestBytes, ReadRatio: mode.ReadRatio, RandomRatio: mode.RandomRatio, LoadProportion: load},
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.0f\t%.1f\t%.3f\t%.1f\t%.3f\t%.3f\n",
			load*100, outcome.Result.IOPS, outcome.Result.MBPS,
			outcome.Power.MeanWatts, outcome.Power.MeanAmps,
			outcome.Record.Efficiency.IOPSPerWatt)
	}
	fmt.Printf("\n%d records stored in the evaluation host's database\n", db.Len())
	for _, r := range db.Select(host.Query{}) {
		fmt.Printf("  record %d: load %.0f%%, %.1f IOPS, %.1f W, %.3f IOPS/W\n",
			r.ID, r.Mode.LoadProportion*100, r.Perf.IOPS, r.Power.MeanWatts, r.Efficiency.IOPSPerWatt)
	}
}
