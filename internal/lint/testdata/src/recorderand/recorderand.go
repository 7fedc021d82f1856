// Package recorderand guards a recorder inside an && chain, where the
// nil check is not the outermost operand.
package recorderand

// Recorder stands in for telemetry.Recorder; the test configures the
// rule's Types to point here.
type Recorder struct {
	Cycles int
}

// Machine carries an optional recorder, nil when tracing is off.
type Machine struct {
	rec *Recorder
}

// Tick guards its body with a nil check joined to another condition.
func (m *Machine) Tick(on bool) {
	if m.rec != nil && on {
		m.rec.Cycles++
	}
}

// Window's third operand runs only when the first two hold; && groups
// to the left, so the nil check sits inside the outer left operand.
func (m *Machine) Window() bool {
	return m.rec != nil && m.rec.Cycles > 0 && m.rec.Cycles < 9
}

// Either's guard does not cross ||.
func (m *Machine) Either(on bool) bool {
	return (m.rec != nil && on) || m.rec.Cycles > 0
}
