// Package netproto implements the TCP message protocol connecting
// TRACER's components (paper Section III-A1): the evaluation host's
// communicator talks to the workload generator over a TCP socket
// channel, and its messenger exchanges control information and energy
// results with the power analyzer.
//
// Wire format: a 4-byte big-endian length prefix followed by a JSON
// envelope {"type": ..., "body": ...}.  The parser role from the paper
// — keeping the GUI's protocol and the messenger's protocol consistent
// — maps here to the typed Encode/Decode helpers: every message type
// has one Go struct, marshalled exactly one way.
package netproto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxMessageBytes bounds a single message (16 MiB); larger payloads
// (e.g. whole traces) must be chunked or stored in the repository.
const MaxMessageBytes = 16 << 20

// Message types exchanged between TRACER components.
const (
	// TypeHello announces a component and its role after connecting.
	TypeHello = "hello"
	// TypeStartTest asks a workload generator to run one replay test.
	TypeStartTest = "start_test"
	// TypeTestProgress streams per-interval throughput during a test.
	TypeTestProgress = "test_progress"
	// TypeTestResult carries the generator's final performance data.
	TypeTestResult = "test_result"
	// TypePowerSamples streams meter samples from the power tap.
	TypePowerSamples = "power_samples"
	// TypePowerReport carries the analyzer's aggregated energy data.
	TypePowerReport = "power_report"
	// TypeError reports a component failure for a request.
	TypeError = "error"
)

// Envelope is the wire frame.
type Envelope struct {
	// Type selects the body schema.
	Type string `json:"type"`
	// Seq correlates requests and responses.
	Seq uint64 `json:"seq"`
	// Body is the type-specific payload.
	Body json.RawMessage `json:"body,omitempty"`
}

// ErrMessageTooLarge reports an over-limit frame.
var ErrMessageTooLarge = errors.New("netproto: message exceeds size limit")

// Conn frames envelopes over a net.Conn.  Writes are serialised; a
// single reader goroutine is assumed (the usual pattern for these
// agents).
type Conn struct {
	raw net.Conn
	wmu sync.Mutex
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn { return &Conn{raw: c} }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// Send marshals body into an envelope of the given type and writes it.
func (c *Conn) Send(typ string, seq uint64, body any) error {
	var raw json.RawMessage
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("netproto: marshal %s: %w", typ, err)
		}
		raw = blob
	}
	frame, err := json.Marshal(Envelope{Type: typ, Seq: seq, Body: raw})
	if err != nil {
		return fmt.Errorf("netproto: %w", err)
	}
	if len(frame) > MaxMessageBytes {
		return ErrMessageTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.raw.Write(hdr[:]); err != nil {
		return fmt.Errorf("netproto: %w", err)
	}
	if _, err := c.raw.Write(frame); err != nil {
		return fmt.Errorf("netproto: %w", err)
	}
	return nil
}

// Recv reads the next envelope.
func (c *Conn) Recv() (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.raw, hdr[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageBytes {
		return Envelope{}, ErrMessageTooLarge
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(c.raw, frame); err != nil {
		return Envelope{}, fmt.Errorf("netproto: truncated frame: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return Envelope{}, fmt.Errorf("netproto: bad frame: %w", err)
	}
	return env, nil
}

// DecodeBody unmarshals an envelope body into out.
func DecodeBody(env Envelope, out any) error {
	if len(env.Body) == 0 {
		return fmt.Errorf("netproto: %s message has no body", env.Type)
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		return fmt.Errorf("netproto: decode %s: %w", env.Type, err)
	}
	return nil
}

// Hello announces a component after connect.
type Hello struct {
	// Role is "generator", "analyzer" or "host".
	Role string `json:"role"`
	// Name labels the component instance.
	Name string `json:"name"`
}

// StartTest configures one replay test (host -> generator).
type StartTest struct {
	// TraceName selects a repository trace by file name.
	TraceName string `json:"trace_name"`
	// LoadProportion configures the uniform filter (0, 1].
	LoadProportion float64 `json:"load_proportion"`
	// Intensity, when nonzero, applies the inter-arrival scaler
	// instead of the proportional filter.
	Intensity float64 `json:"intensity,omitempty"`
	// SamplingCycleMs is the reporting interval (default 1000).
	SamplingCycleMs int64 `json:"sampling_cycle_ms,omitempty"`
}

// IntervalReport is one sampling cycle of throughput (generator -> host).
type IntervalReport struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	IOPS   float64 `json:"iops"`
	MBPS   float64 `json:"mbps"`
}

// TestResult is the generator's final answer.
type TestResult struct {
	TraceName      string  `json:"trace_name"`
	Device         string  `json:"device"`
	LoadProportion float64 `json:"load_proportion"`
	IOPS           float64 `json:"iops"`
	MBPS           float64 `json:"mbps"`
	MeanResponseMs float64 `json:"mean_response_ms"`
	MaxResponseMs  float64 `json:"max_response_ms"`
	P95ResponseMs  float64 `json:"p95_response_ms"`
	P99ResponseMs  float64 `json:"p99_response_ms"`
	DurationS      float64 `json:"duration_s"`
	IOs            int64   `json:"ios"`
}

// PowerSample mirrors one meter reading on the wire.
type PowerSample struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Watts  float64 `json:"watts"`
	Volts  float64 `json:"volts"`
	Amps   float64 `json:"amps"`
}

// PowerSamples streams a batch of readings (generator tap -> analyzer).
type PowerSamples struct {
	Channel string        `json:"channel"`
	Final   bool          `json:"final"`
	Samples []PowerSample `json:"samples"`
}

// PowerReport is the analyzer's aggregate for one test (analyzer -> host).
type PowerReport struct {
	Channel   string  `json:"channel"`
	MeanWatts float64 `json:"mean_watts"`
	MeanVolts float64 `json:"mean_volts"`
	MeanAmps  float64 `json:"mean_amps"`
	EnergyJ   float64 `json:"energy_j"`
	Samples   int     `json:"samples"`
}

// ErrorReport carries a remote failure.
type ErrorReport struct {
	Message string `json:"message"`
}
