// Package thermal adds temperature as an evaluation metric, the first
// item of the paper's future work (Section VII: "We intend to bring in
// temperature as new metric of TRACER evaluation framework, as
// temperature has obvious influences on energy, performance and
// reliability of storage systems").
//
// Each device is modelled as a first-order RC thermal network: its
// temperature relaxes toward a steady state set by its instantaneous
// power draw,
//
//	T_ss(P) = T_ambient + P * Rth
//	tau * dT/dt = T_ss(P(t)) - T
//
// Because device power is a step function (a powersim.Timeline), the
// model integrates each constant-power segment exactly with one
// exponential — no numeric ODE stepping, no drift.
package thermal

import (
	"fmt"
	"math"

	"repro/internal/powersim"
	"repro/internal/simtime"
)

// Model parameterises one device's thermal behaviour.
type Model struct {
	// AmbientC is the ambient temperature in Celsius.
	AmbientC float64
	// RthCPerW is the thermal resistance: steady-state rise above
	// ambient per watt dissipated.
	RthCPerW float64
	// Tau is the thermal time constant.
	Tau simtime.Duration
	// InitialC is the temperature at time zero; zero value means
	// ambient.
	InitialC float64
}

// HDDModel returns parameters typical of a 3.5" enterprise drive in a
// chassis airflow: ~2.2 C/W above a 25 C ambient with a minutes-scale
// time constant (a drive idling at 8 W settles near 42-43 C).
func HDDModel() Model {
	return Model{AmbientC: 25, RthCPerW: 2.2, Tau: 4 * simtime.Minute}
}

// Validate reports parameter errors.
func (m Model) Validate() error {
	if m.RthCPerW <= 0 {
		return fmt.Errorf("thermal: Rth must be positive, got %v", m.RthCPerW)
	}
	if m.Tau <= 0 {
		return fmt.Errorf("thermal: tau must be positive, got %v", m.Tau)
	}
	return nil
}

// SteadyStateC is the temperature the device settles at under constant
// power watts.
func (m Model) SteadyStateC(watts float64) float64 {
	return m.AmbientC + watts*m.RthCPerW
}

// initial returns the starting temperature.
func (m Model) initial() float64 {
	if m.InitialC != 0 {
		return m.InitialC
	}
	return m.AmbientC
}

// At computes the exact temperature at time t given the device's power
// timeline from time zero.
func (m Model) At(tl *powersim.Timeline, t simtime.Time) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	temp := m.initial()
	for _, seg := range tl.Segments(0, t) {
		temp = m.relax(temp, seg.Watts, seg.End.Sub(seg.Start))
	}
	return temp, nil
}

// relax advances temperature through one constant-power span.
func (m Model) relax(temp, watts float64, dt simtime.Duration) float64 {
	tss := m.SteadyStateC(watts)
	alpha := math.Exp(-dt.Seconds() / m.Tau.Seconds())
	return tss + (temp-tss)*alpha
}
