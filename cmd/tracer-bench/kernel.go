// Kernel micro-benchmarks: the "kernel" experiment measures the
// discrete-event engine itself (schedule+drain throughput and the
// end-to-end replay path) with the testing package's benchmark driver
// and emits the numbers as BENCH_kernel.json, so kernel regressions are
// diffable across commits the same way the paper tables are.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// benchOut is where the "kernel" experiment writes its JSON report; set
// by the -benchout flag.
var benchOut = "BENCH_kernel.json"

// kernelEvents is the number of events scheduled per benchmark
// iteration, matching BenchmarkEngineScheduleRun in internal/simtime.
const kernelEvents = 1000

// kernelBench is one benchmark row of BENCH_kernel.json.
type kernelBench struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	IOsPerSec    float64 `json:"ios_per_sec,omitempty"`
}

// kernelReport is the top-level BENCH_kernel.json document.
type kernelReport struct {
	EventsPerOp int           `json:"events_per_op"`
	Benchmarks  []kernelBench `json:"benchmarks"`
}

func row(name string, r testing.BenchmarkResult, unitsPerOp int) kernelBench {
	ns := float64(r.NsPerOp())
	b := kernelBench{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if ns > 0 {
		b.EventsPerSec = float64(unitsPerOp) / ns * 1e9
	}
	return b
}

// nopHandler is the closure-free no-op event target.
type nopHandler struct{}

func (nopHandler) OnEvent(*simtime.Engine, simtime.EventArg) {}

// benchDelta spreads event deadlines pseudo-randomly (but
// deterministically) so the heap actually reorders.
func benchDelta(j int) simtime.Duration {
	return simtime.Duration((j*7919)%104729 + 1)
}

// benchKernel runs the kernel benchmark suite, prints a summary table
// and writes BENCH_kernel.json next to the working directory (path from
// -benchout).
func benchKernel(cfg experiments.Config, w io.Writer) error {
	report := kernelReport{EventsPerOp: kernelEvents}

	base := simtime.NewBaselineEngine()
	report.Benchmarks = append(report.Benchmarks, row("schedule-run/baseline-container-heap", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := base.Now()
			for j := 0; j < kernelEvents; j++ {
				base.Schedule(now.Add(benchDelta(j)), func() {})
			}
			base.Run()
		}
	}), kernelEvents))

	closure := simtime.NewEngine()
	report.Benchmarks = append(report.Benchmarks, row("schedule-run/closure", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := closure.Now()
			for j := 0; j < kernelEvents; j++ {
				closure.Schedule(now.Add(benchDelta(j)), func() {})
			}
			closure.Run()
		}
	}), kernelEvents))

	free := simtime.NewEngine()
	report.Benchmarks = append(report.Benchmarks, row("schedule-run/closure-free", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := free.Now()
			for j := 0; j < kernelEvents; j++ {
				free.ScheduleEvent(now.Add(benchDelta(j)), nopHandler{}, simtime.EventArg{I64: int64(j)})
			}
			free.Run()
		}
	}), kernelEvents))

	wp := synth.DefaultWebServer()
	wp.Duration = 2 * simtime.Second
	trace := synth.WebServerTrace(wp)
	nIOs := trace.NumIOs()
	var replayErr error
	rr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine, array, err := experiments.NewSystem(cfg, experiments.HDDArray)
			if err != nil {
				replayErr = err
				b.FailNow()
			}
			if _, err := replay.Replay(engine, array, trace, replay.Options{}); err != nil {
				replayErr = err
				b.FailNow()
			}
		}
	})
	if replayErr != nil {
		return fmt.Errorf("kernel: replay benchmark: %w", replayErr)
	}
	er := row("end-to-end-replay", rr, 0)
	if er.NsPerOp > 0 {
		er.IOsPerSec = float64(nIOs) / er.NsPerOp * 1e9
	}
	report.Benchmarks = append(report.Benchmarks, er)

	fmt.Fprintf(w, "benchmark\tns/op\tB/op\tallocs/op\tevents/sec\tIOs/sec\n")
	for _, b := range report.Benchmarks {
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%.0f\t%.0f\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, b.EventsPerSec, b.IOsPerSec)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(benchOut, blob, 0o644); err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	fmt.Fprintf(w, "wrote %s\n", benchOut)
	return nil
}
