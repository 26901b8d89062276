// Quickstart: collect a peak workload trace on a simulated RAID-5
// array, replay it at three load proportions with TRACER's uniform
// filter, and report throughput, power and the paper's combined
// energy-efficiency metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/synth"
)

func main() {
	// The system under test is six 7200 RPM drives behind a RAID-5
	// controller with a 128 KB strip, cache disabled (Table II).
	cfg := experiments.DefaultConfig()

	// 1. Collect a peak trace the way the paper does with IOmeter:
	// closed-loop for 2 s at 8 outstanding IOs, 4 KB requests, half
	// reads, half random.
	trace, err := experiments.CollectModeTrace(cfg, experiments.HDDArray,
		synth.Mode{RequestBytes: 4096, ReadRatio: 0.5, RandomRatio: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected peak trace: %d IOs in %d bunches\n", trace.NumIOs(), trace.NumBunches())

	// 2. Replay at three configured load proportions on a fresh array
	// each time, metering wall power like the Hall-effect analyzer.
	fmt.Println("load%\tIOPS\tMBPS\tresp(ms)\twatts\tIOPS/W\tMBPS/kW")
	for _, load := range []float64{0.2, 0.5, 1.0} {
		s, err := experiments.Build(cfg, experiments.StackSpec{Kind: experiments.HDDArray})
		if err != nil {
			log.Fatal(err)
		}
		m, err := experiments.Measure(s, trace, replay.UniformFilter{Proportion: load}, nil)
		if err != nil {
			log.Fatal(err)
		}
		res := m.Result
		fmt.Printf("%.0f\t%.1f\t%.3f\t%.2f\t%.1f\t%.3f\t%.2f\n",
			load*100, res.IOPS, res.MBPS, res.MeanResponse.Seconds()*1000,
			m.Power.Watts, m.Eff.IOPSPerWatt, m.Eff.MBPSPerKW)
	}
}
