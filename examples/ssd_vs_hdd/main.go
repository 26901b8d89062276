// ssd_vs_hdd reproduces Section VI-G's comparison: evaluate the same
// workload modes on the 6-drive HDD RAID-5 and the 4-drive SLC SSD
// RAID-5, reporting IOPS/Watt and MBPS/Kilowatt side by side.
//
//	go run ./examples/ssd_vs_hdd
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
)

func evaluate(kind experiments.ArrayKind, mode synth.Mode) metrics.Efficiency {
	cfg := experiments.DefaultConfig()
	// Collect the peak trace on a pristine array of this kind.
	trace, err := experiments.CollectModeTrace(cfg, kind, mode)
	if err != nil {
		log.Fatal(err)
	}
	// Replay at full load on a fresh array and meter power.
	s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind})
	if err != nil {
		log.Fatal(err)
	}
	m, err := experiments.Measure(s, trace, replay.UniformFilter{Proportion: 1.0}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return m.Eff
}

func main() {
	// Idle baselines first (the paper reports 195.8 W for the SSD array).
	cfg := experiments.DefaultConfig()
	for _, kind := range []experiments.ArrayKind{experiments.HDDArray, experiments.SSDArray} {
		s, err := experiments.Build(cfg, experiments.StackSpec{Kind: kind})
		if err != nil {
			log.Fatal(err)
		}
		s.Engine.RunUntil(simtime.Time(5 * simtime.Second))
		fmt.Printf("%s idle: %.1f W\n", kind, powersim.Read(s.PowerSource(), cfg.Seed, 0, s.Engine.Now()).Watts)
	}

	modes := []synth.Mode{
		{RequestBytes: 4 << 10, ReadRatio: 1, RandomRatio: 1},    // random reads
		{RequestBytes: 4 << 10, ReadRatio: 0, RandomRatio: 1},    // random writes
		{RequestBytes: 64 << 10, ReadRatio: 1, RandomRatio: 0},   // sequential reads
		{RequestBytes: 64 << 10, ReadRatio: 0.5, RandomRatio: 0}, // sequential mix
	}
	fmt.Println("\nmode\t\t\tHDD IOPS/W\tSSD IOPS/W\tHDD MBPS/kW\tSSD MBPS/kW")
	for _, mode := range modes {
		h := evaluate(experiments.HDDArray, mode)
		s := evaluate(experiments.SSDArray, mode)
		fmt.Printf("%-22s\t%.3f\t%.3f\t%.2f\t%.2f\n", mode, h.IOPSPerWatt, s.IOPSPerWatt, h.MBPSPerKW, s.MBPSPerKW)
	}
	fmt.Println("\nSSD-based RAID-5 wins decisively on random workloads (no seeks);")
	fmt.Println("its energy efficiency is strongly shaped by read/write ratio (GC cost).")
}
