// Command tracerd runs TRACER's distributed agents (paper Fig. 3): a
// workload generator owning a simulated array and a trace repository,
// or a multi-channel power analyzer.  An evaluation host (cmd/tracer or
// the cluster API) connects over TCP to drive tests.
//
// Usage:
//
//	tracerd -role analyzer  -listen 127.0.0.1:7071
//	tracerd -role generator -listen 127.0.0.1:7070 -repo traces \
//	        [-device hdd|ssd] [-analyzer 127.0.0.1:7071] [-channel ch0] \
//	        [-telemetry-dir DIR] [-debug-addr 127.0.0.1:6060] [-slo spec.json]
//	tracerd -role host -generator 127.0.0.1:7070 -analyzer 127.0.0.1:7071 \
//	        -trace NAME -loads 10,50,100 [-db results.json]
//
// A generator with -telemetry-dir instruments every test it serves and,
// on SIGINT/SIGTERM, flushes the full artifact set (summary.json,
// series.csv, events.jsonl, trace.json) before exiting.  -debug-addr
// serves net/http/pprof, an expvar snapshot of the live telemetry
// registry at /debug/vars, the Prometheus text exposition at /metrics,
// and — with -slo — the latest run's SLO evaluation as JSON at /slo.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/netproto"
	"repro/internal/replay"
	"repro/internal/repository"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracerd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracerd", flag.ContinueOnError)
	role := fs.String("role", "", "agent role: generator, analyzer or host")
	listen := fs.String("listen", "127.0.0.1:0", "listen address (generator/analyzer)")
	repoDir := fs.String("repo", "traces", "trace repository directory (generator)")
	device := fs.String("device", "hdd", "array kind the generator provisions")
	analyzerAddr := fs.String("analyzer", "", "power analyzer address")
	channel := fs.String("channel", "ch0", "power analyzer channel name (generator)")
	generatorAddr := fs.String("generator", "", "generator address (host)")
	traceName := fs.String("trace", "", "trace to test (host)")
	loadsStr := fs.String("loads", "100", "load percentages (host)")
	dbPath := fs.String("db", "", "results database file (host)")
	telemetryDir := fs.String("telemetry-dir", "", "instrument tests and flush telemetry here on shutdown (generator)")
	debugAddr := fs.String("debug-addr", "", "serve pprof + expvar + /metrics + /slo on this address (generator)")
	sloPath := fs.String("slo", "", "SLO spec JSON evaluated over every test (generator; \"example\" for the built-in spec)")
	oneshot := fs.Bool("oneshot", false, "exit after binding (tests)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "tracerd ", log.LstdFlags)

	switch *role {
	case "analyzer":
		a := cluster.NewAnalyzerAgent(logger)
		addr, err := a.Listen(*listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "analyzer listening on %s\n", addr)
		if *oneshot {
			return a.Close()
		}
		waitForSignal()
		return a.Close()

	case "generator":
		repo, err := repository.Open(*repoDir)
		if err != nil {
			return err
		}
		kind, err := experiments.KindFromString(*device)
		if err != nil {
			return err
		}
		factory := func() (*cluster.SystemUnderTest, error) {
			s, err := experiments.Build(experiments.DefaultConfig(), experiments.StackSpec{Kind: kind})
			if err != nil {
				return nil, err
			}
			return &cluster.SystemUnderTest{Engine: s.Engine, Device: s.Device, Power: s.PowerSource(), Name: kind.String()}, nil
		}
		g := cluster.NewGeneratorAgent(repo, factory, *analyzerAddr, *channel, logger)
		var set *telemetry.Set
		if *telemetryDir != "" || *debugAddr != "" {
			set = telemetry.New(telemetry.Options{})
			g.AttachTelemetry(set)
		}
		if *sloPath != "" {
			spec, err := slo.LoadSpec(*sloPath)
			if err != nil {
				return err
			}
			g.AttachSLO(spec)
		}
		if *debugAddr != "" {
			addr, err := serveDebug(*debugAddr, set, g)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "debug server on %s (pprof, /debug/vars, /metrics, /slo)\n", addr)
		}
		addr, err := g.Listen(*listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generator listening on %s (repo %s, device %s)\n", addr, *repoDir, kind)
		if *oneshot {
			return flushTelemetry(g.Close(), set, *telemetryDir, out)
		}
		waitForSignal()
		// Graceful shutdown: stop accepting, wait for in-flight tests,
		// then export the telemetry accumulated over the daemon's life.
		return flushTelemetry(g.Close(), set, *telemetryDir, out)

	case "host":
		if *generatorAddr == "" || *traceName == "" {
			return fmt.Errorf("host role requires -generator and -trace")
		}
		loads, err := replay.ParseLoads(*loadsStr)
		if err != nil {
			return err
		}
		var db *host.DB
		if *dbPath != "" {
			if db, err = host.LoadDB(*dbPath); err != nil {
				return err
			}
		}
		h, err := cluster.Dial(*generatorAddr, *analyzerAddr, db)
		if err != nil {
			return err
		}
		defer h.Close()
		fmt.Fprintln(out, "load%\tIOPS\tMBPS\twatts\tIOPS/W")
		for _, load := range loads {
			outcome, err := h.RunTest(netproto.StartTest{TraceName: *traceName, LoadProportion: load},
				*device, host.ModeVector{LoadProportion: load})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%.0f\t%.1f\t%.3f\t%.1f\t%.3f\n",
				load*100, outcome.Result.IOPS, outcome.Result.MBPS,
				outcome.Power.MeanWatts, outcome.Record.Efficiency.IOPSPerWatt)
		}
		if db != nil {
			if err := db.Save(*dbPath); err != nil {
				return err
			}
			fmt.Fprintf(out, "saved %d records to %s\n", db.Len(), *dbPath)
		}
		return nil

	default:
		return fmt.Errorf("unknown role %q (want generator, analyzer or host)", *role)
	}
}

// flushTelemetry exports the set into dir after the agent has drained
// (closeErr is the agent's Close result).  Export errors never mask a
// close error; both reach the caller's exit status.
func flushTelemetry(closeErr error, set *telemetry.Set, dir string, out io.Writer) error {
	if set == nil || dir == "" {
		return closeErr
	}
	if err := set.WriteDir(dir); err != nil {
		if closeErr != nil {
			return fmt.Errorf("%w (and telemetry flush failed: %v)", closeErr, err)
		}
		return err
	}
	fmt.Fprintf(out, "telemetry flushed to %s\n", dir)
	return closeErr
}

// debugRegistry is the registry the expvar and /metrics handlers read,
// and debugGenerator backs /slo; package atomics (re-pointed per run)
// because expvar.Publish and http.HandleFunc panic on duplicate
// registration, so the names bind once per process.
var (
	debugRegistry  atomic.Pointer[telemetry.Registry]
	debugGenerator atomic.Pointer[cluster.GeneratorAgent]
	publishOnce    sync.Once
)

// serveDebug starts the debug HTTP server on addr: net/http/pprof (via
// its DefaultServeMux side-effect import), /debug/vars carrying a
// "telemetry" snapshot of the live registry, /metrics serving the same
// registry in Prometheus text format, and /slo serving the latest SLO
// run's evaluation.  Counters and histogram digests only; probe
// callbacks are skipped because they read sim-goroutine-owned state.
func serveDebug(addr string, set *telemetry.Set, g *cluster.GeneratorAgent) (net.Addr, error) {
	debugRegistry.Store(set.Registry())
	debugGenerator.Store(g)
	publishOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return debugRegistry.Load().Snapshot()
		}))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := debugRegistry.Load().WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		http.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
			st, ok := debugGenerator.Load().SLOStatus()
			if !ok {
				http.Error(w, "no SLO-evaluated run yet (start tests with -slo attached)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listen: %w", err)
	}
	go func() { _ = http.Serve(ln, nil) }()
	return ln.Addr(), nil
}

// notifySignals registers ch for the shutdown signals; a variable so
// tests can substitute a synthetic signal source.
var notifySignals = func(ch chan os.Signal) {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	notifySignals(ch)
	<-ch
}
