// Package cluster implements TRACER in a distributed environment
// (paper Fig. 3): an evaluation host coordinating a workload-generator
// machine and a multi-channel power analyzer over TCP.
//
// Roles:
//
//   - GeneratorAgent owns the storage system under test (here a
//     simulated array) and the trace repository.  On StartTest it
//     filters and replays the requested trace, streams per-interval
//     progress to the host, taps the array's wall power and streams the
//     meter samples to the analyzer — standing in for the Hall-effect
//     loop physically clamped onto the array's supply.
//
//   - AnalyzerAgent aggregates sample streams per channel and pushes a
//     PowerReport (mean current/voltage/power, energy) to the host,
//     like the paper's KS706 channels reporting in real time.
//
//   - Host connects to both, launches tests, and joins the performance
//     result with the power report into a host.Record.
//
// All communication uses internal/netproto frames, so the pieces can
// run in one process (tests, examples) or in separate processes
// (cmd/tracerd).
package cluster

import (
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// SystemUnderTest is a freshly provisioned simulated storage system:
// the device to replay against, its wall-power source, and the engine
// both live on.  A factory builds one per test so runs are independent,
// mirroring the paper's practice of testing from a quiesced array.
type SystemUnderTest struct {
	Engine *simtime.Engine
	Device storage.Device
	Power  powersim.Source
	Name   string
}

// Factory provisions a SystemUnderTest.
type Factory func() (*SystemUnderTest, error)

// GeneratorAgent is the workload-generator machine.
type GeneratorAgent struct {
	repo     *repository.Repository
	factory  Factory
	analyzer string // analyzer address for the power tap; empty disables
	channel  string

	ln     net.Listener
	wg     sync.WaitGroup
	logger *log.Logger

	tel *telemetry.Set

	sloSpec   *slo.Spec
	sloLatest atomic.Pointer[slo.Engine]
}

// AttachTelemetry makes every subsequent test run instrumented into
// set: replay and array probes, per-engine kernel gauges, run spans
// and windowed samples, accumulated across tests for the daemon's
// lifetime (the registry snapshot is what tracerd's debug endpoint
// exposes).  Each run records into a private telemetry.Set that is
// folded into set when the run finishes (telemetry.Set.Merge), so
// concurrent instrumented replays never share hot-path state and do
// not serialize.  Call before Listen.  A nil set disables
// instrumentation.
func (g *GeneratorAgent) AttachTelemetry(set *telemetry.Set) { g.tel = set }

// AttachSLO makes every subsequent test run evaluate the spec: a fresh
// slo.Engine per run, fed from a replay observer over the filtered
// trace, with client identity derived from sector position
// (slo.ClientOfSector).  The latest finished run's engine backs
// SLOStatus, which tracerd's /slo endpoint serves.  Call before
// Listen.
func (g *GeneratorAgent) AttachSLO(spec slo.Spec) { g.sloSpec = &spec }

// SLOStatus snapshots the most recent SLO-evaluated run; ok is false
// before the first instrumented test finishes.  Safe from any
// goroutine.
func (g *GeneratorAgent) SLOStatus() (slo.Status, bool) {
	eng := g.sloLatest.Load()
	if eng == nil {
		return slo.Status{}, false
	}
	return eng.Snapshot(), true
}

// NewGeneratorAgent creates a generator serving traces from repo and
// provisioning systems from factory.  analyzerAddr may be empty when no
// power analyzer participates.
func NewGeneratorAgent(repo *repository.Repository, factory Factory, analyzerAddr, channel string, logger *log.Logger) *GeneratorAgent {
	if logger == nil {
		logger = log.New(logDiscard{}, "", 0)
	}
	if channel == "" {
		channel = "ch0"
	}
	return &GeneratorAgent{repo: repo, factory: factory, analyzer: analyzerAddr, channel: channel, logger: logger}
}

type logDiscard struct{}

func (logDiscard) Write(p []byte) (int, error) { return len(p), nil }

// Listen starts accepting host connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address.
func (g *GeneratorAgent) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: generator listen: %w", err)
	}
	g.ln = ln
	g.wg.Add(1)
	go g.acceptLoop()
	return ln.Addr(), nil
}

// Close stops the agent and waits for connection handlers.
func (g *GeneratorAgent) Close() error {
	var err error
	if g.ln != nil {
		err = g.ln.Close()
	}
	g.wg.Wait()
	return err
}

func (g *GeneratorAgent) acceptLoop() {
	defer g.wg.Done()
	for {
		c, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.serve(netproto.NewConn(c))
		}()
	}
}

func (g *GeneratorAgent) serve(conn *netproto.Conn) {
	defer conn.Close()
	for {
		env, err := conn.Recv()
		if err != nil {
			return
		}
		switch env.Type {
		case netproto.TypeHello:
			// informational only
		case netproto.TypeStartTest:
			var st netproto.StartTest
			if err := netproto.DecodeBody(env, &st); err != nil {
				_ = conn.Send(netproto.TypeError, env.Seq, netproto.ErrorReport{Message: err.Error()})
				continue
			}
			if err := g.runTest(conn, env.Seq, st); err != nil {
				g.logger.Printf("generator: test %d failed: %v", env.Seq, err)
				_ = conn.Send(netproto.TypeError, env.Seq, netproto.ErrorReport{Message: err.Error()})
			}
		default:
			_ = conn.Send(netproto.TypeError, env.Seq, netproto.ErrorReport{Message: "unknown message " + env.Type})
		}
	}
}

// runTest executes one replay test and reports results to the host
// connection and samples to the analyzer.
func (g *GeneratorAgent) runTest(conn *netproto.Conn, seq uint64, st netproto.StartTest) error {
	trace, err := g.repo.Load(st.TraceName)
	if err != nil {
		return err
	}
	sut, err := g.factory()
	if err != nil {
		return err
	}
	var f replay.Filter
	switch {
	case st.Intensity > 0:
		f = replay.IntervalScaler{Intensity: st.Intensity}
	case st.LoadProportion > 0 && st.LoadProportion < 1:
		f = replay.UniformFilter{Proportion: st.LoadProportion}
	default:
		f = replay.Identity{}
	}
	cycle := simtime.Duration(st.SamplingCycleMs) * simtime.Millisecond
	if cycle <= 0 {
		cycle = simtime.Second
	}
	opts := replay.Options{SamplingCycle: cycle}
	// The filter materializes here (not inside ReplayFiltered) because
	// the SLO observer classifies by bunch/package index and must see
	// the same trace the replay iterates.
	filtered := f.Apply(trace)
	var sloEng *slo.Engine
	if g.sloSpec != nil {
		eng, err := slo.NewEngine(*g.sloSpec)
		if err != nil {
			return err
		}
		opts.Observer = slo.NewTraceObserver(eng, filtered)
		sloEng = eng
	}
	finishTelemetry := func() {}
	if g.tel != nil {
		// Each run records into a private Set on its own engine —
		// counters, histograms, spans and windowed samples — and folds
		// it into the daemon set once the replay is done.  Concurrent
		// instrumented tests therefore share nothing on the replay hot
		// path; only the post-run Merge synchronizes.
		run := telemetry.New(telemetry.Options{Cadence: g.tel.Cadence()})
		if at, ok := sut.Device.(interface{ AttachTelemetry(*telemetry.Set) }); ok {
			at.AttachTelemetry(run)
		}
		telemetry.WireEngine(run, sut.Engine)
		opts.Telemetry = telemetry.NewReplayProbe(run)
		horizon := sut.Engine.Now().Add(trace.Duration() + 2*run.Cadence())
		run.StartSampling(sut.Engine, horizon)
		if sloEng != nil {
			run.AddArtifact(slo.AlertsFile, sloEng.WriteAlerts)
		}
		finishTelemetry = func() {
			run.Flush(sut.Engine.Now())
			g.tel.Merge(run)
		}
	}
	opts.Telemetry.OnFilter(filtered.NumIOs(), trace.NumIOs()-filtered.NumIOs())
	res, err := replay.Replay(sut.Engine, sut.Device, filtered, opts)
	if err != nil {
		return err
	}
	res.Filter = f.Name()
	if sloEng != nil {
		// The observer advanced the engine with every completion; seal
		// the trailing partial tick at the run's end and publish the
		// snapshot for the debug endpoint.
		sloEng.Finish(res.End)
		g.sloLatest.Store(sloEng)
	}
	// Fold the run's telemetry in before the result frame goes out, so
	// a host that reads the daemon set after a synchronous test sees
	// this run included.
	finishTelemetry()

	// Stream per-interval progress, as the GUI renders in real time.
	for _, iv := range res.Intervals {
		_ = conn.Send(netproto.TypeTestProgress, seq, netproto.IntervalReport{
			StartS: iv.Start.Seconds(), EndS: iv.End.Seconds(), IOPS: iv.IOPS, MBPS: iv.MBPS,
		})
	}

	// Tap the wall power over the run and push it to the analyzer.
	if g.analyzer != "" {
		meter := powersim.DefaultMeter(sut.Power)
		samples := meter.Measure(res.Start, res.End)
		if err := g.pushSamples(seq, samples); err != nil {
			return fmt.Errorf("power tap: %w", err)
		}
	}

	return conn.Send(netproto.TypeTestResult, seq, netproto.TestResult{
		TraceName:      st.TraceName,
		Device:         sut.Name,
		LoadProportion: st.LoadProportion,
		IOPS:           res.IOPS,
		MBPS:           res.MBPS,
		MeanResponseMs: res.MeanResponse.Seconds() * 1000,
		MaxResponseMs:  res.MaxResponse.Seconds() * 1000,
		P95ResponseMs:  res.P95Response.Seconds() * 1000,
		P99ResponseMs:  res.P99Response.Seconds() * 1000,
		DurationS:      res.Duration().Seconds(),
		IOs:            res.Completed,
	})
}

func (g *GeneratorAgent) pushSamples(seq uint64, samples []powersim.Sample) error {
	raw, err := net.Dial("tcp", g.analyzer)
	if err != nil {
		return err
	}
	conn := netproto.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(netproto.TypeHello, seq, netproto.Hello{Role: "power-tap", Name: g.channel}); err != nil {
		return err
	}
	const batch = 512
	for i := 0; i < len(samples) || i == 0; i += batch {
		end := i + batch
		if end > len(samples) {
			end = len(samples)
		}
		msg := netproto.PowerSamples{Channel: g.channel, Final: end == len(samples)}
		for _, s := range samples[i:end] {
			msg.Samples = append(msg.Samples, netproto.PowerSample{
				StartS: s.Start.Seconds(), EndS: s.End.Seconds(),
				Watts: s.Watts, Volts: s.Volts, Amps: s.Amps,
			})
		}
		if err := conn.Send(netproto.TypePowerSamples, seq, msg); err != nil {
			return err
		}
		if end >= len(samples) {
			break
		}
	}
	return nil
}

// AnalyzerAgent aggregates power-sample streams and pushes reports to
// subscribed hosts.
type AnalyzerAgent struct {
	ln     net.Listener
	wg     sync.WaitGroup
	logger *log.Logger

	mu    sync.Mutex
	hosts []*netproto.Conn
}

// NewAnalyzerAgent creates an analyzer.
func NewAnalyzerAgent(logger *log.Logger) *AnalyzerAgent {
	if logger == nil {
		logger = log.New(logDiscard{}, "", 0)
	}
	return &AnalyzerAgent{logger: logger}
}

// Listen starts the analyzer on addr and returns the bound address.
func (a *AnalyzerAgent) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: analyzer listen: %w", err)
	}
	a.ln = ln
	a.wg.Add(1)
	go a.acceptLoop()
	return ln.Addr(), nil
}

// Close stops the analyzer.
func (a *AnalyzerAgent) Close() error {
	var err error
	if a.ln != nil {
		err = a.ln.Close()
	}
	a.mu.Lock()
	for _, h := range a.hosts {
		h.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return err
}

func (a *AnalyzerAgent) acceptLoop() {
	defer a.wg.Done()
	for {
		c, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.serve(netproto.NewConn(c))
		}()
	}
}

func (a *AnalyzerAgent) serve(conn *netproto.Conn) {
	type chanAgg struct {
		watts, volts, amps, energy float64
		weight                     float64
		n                          int
	}
	aggs := map[string]*chanAgg{}
	isHost := false
	defer func() {
		if !isHost {
			conn.Close()
		}
	}()
	for {
		env, err := conn.Recv()
		if err != nil {
			return
		}
		switch env.Type {
		case netproto.TypeHello:
			var h netproto.Hello
			if err := netproto.DecodeBody(env, &h); err == nil && h.Role == "host" {
				isHost = true
				a.mu.Lock()
				a.hosts = append(a.hosts, conn)
				// Dial waits for this acknowledgement, so no report is
				// broadcast before the host is subscribed; sending it under
				// the lock puts it ahead of every report on this conn.
				err := conn.Send(netproto.TypeHello, env.Seq, netproto.Hello{Role: "analyzer"})
				a.mu.Unlock()
				if err != nil {
					return
				}
			}
		case netproto.TypePowerSamples:
			var ps netproto.PowerSamples
			if err := netproto.DecodeBody(env, &ps); err != nil {
				a.logger.Printf("analyzer: bad samples: %v", err)
				continue
			}
			agg, ok := aggs[ps.Channel]
			if !ok {
				agg = &chanAgg{}
				aggs[ps.Channel] = agg
			}
			for _, s := range ps.Samples {
				d := s.EndS - s.StartS
				if d <= 0 {
					continue
				}
				agg.watts += s.Watts * d
				agg.volts += s.Volts * d
				agg.amps += s.Amps * d
				agg.energy += s.Watts * d
				agg.weight += d
				agg.n++
			}
			if ps.Final {
				report := netproto.PowerReport{Channel: ps.Channel, Samples: agg.n, EnergyJ: agg.energy}
				if agg.weight > 0 {
					report.MeanWatts = agg.watts / agg.weight
					report.MeanVolts = agg.volts / agg.weight
					report.MeanAmps = agg.amps / agg.weight
				}
				delete(aggs, ps.Channel)
				a.broadcast(env.Seq, report)
			}
		}
	}
}

func (a *AnalyzerAgent) broadcast(seq uint64, report netproto.PowerReport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	alive := a.hosts[:0]
	for _, h := range a.hosts {
		if err := h.Send(netproto.TypePowerReport, seq, report); err == nil {
			alive = append(alive, h)
		}
	}
	a.hosts = alive
}

// Host is the evaluation-host side: it drives tests and joins results.
type Host struct {
	gen      *netproto.Conn
	analyzer *netproto.Conn
	db       *host.DB
	seq      uint64

	mu      sync.Mutex
	reports map[uint64]chan netproto.PowerReport
	readErr error
}

// Dial connects the host to a generator and (optionally) an analyzer.
func Dial(generatorAddr, analyzerAddr string, db *host.DB) (*Host, error) {
	rawG, err := net.Dial("tcp", generatorAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial generator: %w", err)
	}
	// The analyzer broadcasts every report to every host and a host
	// matches reports by sequence number, so each host numbers its tests
	// from its own random base.
	h := &Host{gen: netproto.NewConn(rawG), db: db, seq: uint64(rand.Uint32()) << 32, reports: map[uint64]chan netproto.PowerReport{}}
	if err := h.gen.Send(netproto.TypeHello, 0, netproto.Hello{Role: "host", Name: "evaluation-host"}); err != nil {
		h.gen.Close()
		return nil, err
	}
	if analyzerAddr != "" {
		rawA, err := net.Dial("tcp", analyzerAddr)
		if err != nil {
			h.gen.Close()
			return nil, fmt.Errorf("cluster: dial analyzer: %w", err)
		}
		h.analyzer = netproto.NewConn(rawA)
		if err := h.analyzer.Send(netproto.TypeHello, 0, netproto.Hello{Role: "host", Name: "evaluation-host"}); err != nil {
			h.Close()
			return nil, err
		}
		env, err := h.analyzer.Recv()
		if err == nil && env.Type != netproto.TypeHello {
			err = fmt.Errorf("unexpected %s frame", env.Type)
		}
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: analyzer subscription: %w", err)
		}
		go h.analyzerLoop()
	}
	return h, nil
}

// Close tears down both connections.
func (h *Host) Close() error {
	err := h.gen.Close()
	if h.analyzer != nil {
		h.analyzer.Close()
	}
	return err
}

func (h *Host) analyzerLoop() {
	for {
		env, err := h.analyzer.Recv()
		if err != nil {
			h.mu.Lock()
			h.readErr = err
			for _, ch := range h.reports {
				close(ch)
			}
			h.reports = map[uint64]chan netproto.PowerReport{}
			h.mu.Unlock()
			return
		}
		if env.Type != netproto.TypePowerReport {
			continue
		}
		var pr netproto.PowerReport
		if err := netproto.DecodeBody(env, &pr); err != nil {
			continue
		}
		h.mu.Lock()
		ch, ok := h.reports[env.Seq]
		if ok {
			delete(h.reports, env.Seq)
		}
		h.mu.Unlock()
		if ok {
			ch <- pr
			close(ch)
		}
	}
}

// TestOutcome joins a test's performance and power measurements.
type TestOutcome struct {
	Result netproto.TestResult
	Power  netproto.PowerReport
	// Record is the database record inserted (ID filled in).
	Record host.Record
	// Progress holds streamed per-interval reports.
	Progress []netproto.IntervalReport
}

// RunTest executes one test synchronously and records the outcome.
// mode documents the workload parameters for the database record.
func (h *Host) RunTest(st netproto.StartTest, device string, mode host.ModeVector) (*TestOutcome, error) {
	h.seq++
	seq := h.seq

	var reportCh chan netproto.PowerReport
	if h.analyzer != nil {
		reportCh = make(chan netproto.PowerReport, 1)
		h.mu.Lock()
		h.reports[seq] = reportCh
		h.mu.Unlock()
	}

	if err := h.gen.Send(netproto.TypeStartTest, seq, st); err != nil {
		return nil, err
	}
	outcome := &TestOutcome{}
	for {
		env, err := h.gen.Recv()
		if err != nil {
			return nil, fmt.Errorf("cluster: generator connection lost: %w", err)
		}
		if env.Seq != seq {
			continue
		}
		switch env.Type {
		case netproto.TypeTestProgress:
			var iv netproto.IntervalReport
			if err := netproto.DecodeBody(env, &iv); err == nil {
				outcome.Progress = append(outcome.Progress, iv)
			}
			continue
		case netproto.TypeTestResult:
			if err := netproto.DecodeBody(env, &outcome.Result); err != nil {
				return nil, err
			}
		case netproto.TypeError:
			var er netproto.ErrorReport
			_ = netproto.DecodeBody(env, &er)
			return nil, errors.New("cluster: remote: " + er.Message)
		default:
			continue
		}
		break
	}

	if reportCh != nil {
		pr, ok := <-reportCh
		if !ok {
			return nil, fmt.Errorf("cluster: analyzer connection lost: %v", h.readErr)
		}
		outcome.Power = pr
	}

	rec := host.Record{
		Device:    device,
		TraceName: st.TraceName,
		Mode:      mode,
		Power: host.PowerData{
			MeanAmps:  outcome.Power.MeanAmps,
			MeanVolts: outcome.Power.MeanVolts,
			MeanWatts: outcome.Power.MeanWatts,
			EnergyJ:   outcome.Power.EnergyJ,
			Samples:   outcome.Power.Samples,
		},
		Perf: host.PerfData{
			IOPS:           outcome.Result.IOPS,
			MBPS:           outcome.Result.MBPS,
			MeanResponseMs: outcome.Result.MeanResponseMs,
			MaxResponseMs:  outcome.Result.MaxResponseMs,
			P95ResponseMs:  outcome.Result.P95ResponseMs,
			P99ResponseMs:  outcome.Result.P99ResponseMs,
			DurationS:      outcome.Result.DurationS,
			IOs:            outcome.Result.IOs,
		},
		Efficiency: host.EfficiencyData{
			IOPSPerWatt: metrics.IOPSPerWatt(outcome.Result.IOPS, outcome.Power.MeanWatts),
			MBPSPerKW:   metrics.MBPSPerKilowatt(outcome.Result.MBPS, outcome.Power.MeanWatts),
		},
	}
	if h.db != nil {
		rec.ID = h.db.Insert(rec)
	}
	outcome.Record = rec
	return outcome, nil
}
