package stack

import (
	"repro/internal/metrics"
	"repro/internal/socketapi"
)

// LocalPorts is the port namespace of a host, held by the stack that
// owns it: a Control (the in-kernel and server baselines, and the OS
// server of the decomposed architecture, where it implements the paper's
// "local IP port manager").
type LocalPorts struct {
	inUse     map[portKey]portState // by value: a reservation allocates no record
	nextEphem uint16

	// Reserves counts successful port acquisitions (ephemeral or
	// explicit); Releases counts ports whose last reference went away.
	// At quiesce, Reserves - Releases == Active().
	Reserves metrics.Counter
	Releases metrics.Counter
}

type portKey struct {
	proto uint8
	port  uint16
}

type portState struct {
	refs  int
	reuse bool
	// quarantinedUntil blocks rebinding of ports whose connections were
	// aborted by a dying process (paper §3.2: "delay the reopening of any
	// aborted connections").
	quarantined bool
}

const (
	ephemeralFirst = 1024
	ephemeralLast  = 65535
)

// NewLocalPorts returns an empty namespace.
func NewLocalPorts() *LocalPorts {
	return &LocalPorts{inUse: make(map[portKey]portState), nextEphem: ephemeralFirst}
}

// AllocEphemeral reserves a free ephemeral port for proto.
func (lp *LocalPorts) AllocEphemeral(proto uint8) (uint16, error) {
	for i := 0; i < ephemeralLast-ephemeralFirst; i++ {
		p := lp.nextEphem
		lp.nextEphem++
		if lp.nextEphem == 0 {
			lp.nextEphem = ephemeralFirst
		}
		if _, taken := lp.inUse[portKey{proto, p}]; !taken && p >= ephemeralFirst {
			lp.inUse[portKey{proto, p}] = portState{refs: 1}
			lp.Reserves.Inc()
			return p, nil
		}
	}
	return 0, socketapi.ErrAddrNotAvail
}

// Reserve claims a specific port; it fails if the port is taken (unless
// both the holder and the caller permit reuse).
func (lp *LocalPorts) Reserve(proto uint8, port uint16, reuse bool) error {
	if port == 0 {
		return socketapi.ErrInvalid
	}
	k := portKey{proto, port}
	if st, taken := lp.inUse[k]; taken {
		if st.quarantined {
			return socketapi.ErrAddrInUse
		}
		if st.reuse && reuse {
			st.refs++
			lp.inUse[k] = st
			lp.Reserves.Inc()
			return nil
		}
		return socketapi.ErrAddrInUse
	}
	lp.inUse[k] = portState{refs: 1, reuse: reuse}
	lp.Reserves.Inc()
	return nil
}

// Release returns a port to the namespace.
func (lp *LocalPorts) Release(proto uint8, port uint16) {
	k := portKey{proto, port}
	if st, ok := lp.inUse[k]; ok {
		st.refs--
		lp.Releases.Inc()
		lp.put(k, st)
	}
}

// put stores a reservation back, or deletes it once no reference holds
// it.
func (lp *LocalPorts) put(k portKey, st portState) {
	if st.refs <= 0 {
		delete(lp.inUse, k)
	} else {
		lp.inUse[k] = st
	}
}

// Quarantine blocks a port from reuse until Unquarantine (used by the OS
// server when it aborts a dead process's connections).
func (lp *LocalPorts) Quarantine(proto uint8, port uint16) {
	k := portKey{proto, port}
	st := lp.inUse[k] // the zero state for a free port
	st.quarantined = true
	st.refs++ // hold it
	lp.inUse[k] = st
}

// Unquarantine lifts a quarantine.
func (lp *LocalPorts) Unquarantine(proto uint8, port uint16) {
	k := portKey{proto, port}
	if st, ok := lp.inUse[k]; ok && st.quarantined {
		st.quarantined = false
		st.refs--
		lp.put(k, st)
	}
}

// InUse reports whether a port is currently reserved.
func (lp *LocalPorts) InUse(proto uint8, port uint16) bool {
	_, ok := lp.inUse[portKey{proto, port}]
	return ok
}

// Active returns the number of reserved ports (including quarantined
// ones), for the ports-in-use gauge.
func (lp *LocalPorts) Active() int { return len(lp.inUse) }
