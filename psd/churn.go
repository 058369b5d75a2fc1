package psd

import "fmt"

// ChurnConfig parameterizes the connection-churn scale workload: many
// hosts opening and closing thousands of short-lived TCP connections,
// with a fraction of clients dying without cleanup so the OS servers'
// orphan-abort machinery runs at scale. Acceptance is the drained
// run's Network.Audit (see ChurnReport.Check).
//
// All hosts share one flat Ethernet segment; the routed, shardable form
// of the same workload is RunCity.
type ChurnConfig struct {
	Seed           int64
	Servers        int // echo-server hosts
	Clients        int // client hosts
	ConnsPerClient int // sequential connections per client
	OrphanEvery    int // every Nth client exits without closing its last conn (0 = none)
	MsgBytes       int // payload echoed once per connection
	Arch           Arch
}

// DefaultChurn is the scale point the acceptance criteria call for:
// 2,016 connections across 106 hosts, one in eight clients orphaned.
func DefaultChurn(seed int64) ChurnConfig {
	return ChurnConfig{
		Seed:           seed,
		Servers:        10,
		Clients:        96,
		ConnsPerClient: 21,
		OrphanEvery:    8,
		MsgBytes:       512,
		Arch:           Decomposed(),
	}
}

// ChurnLaws are the churn conservation quantities, summed over every
// host's OS-server scope; the audit's conns and residue laws hold them
// in balance.
type ChurnLaws struct {
	ConnSetups     int64 `json:"conn_setups"`
	ConnTeardowns  int64 `json:"conn_teardowns"`
	OrphansAborted int64 `json:"orphans_aborted"`
	SessionsMade   int64 `json:"sessions_made"`
	SessionsReaped int64 `json:"sessions_reaped"`

	// Residue at drain; every field must be zero.
	LiveSessions int64 `json:"live_sessions"`
	PortsInUse   int64 `json:"ports_in_use"`
	TimeWait     int64 `json:"time_wait"`
}

func readChurnLaws(snap *MetricsSnapshot) ChurnLaws {
	return ChurnLaws{
		ConnSetups:     snap.Sum(".core.conn_setup"),
		ConnTeardowns:  snap.Sum(".core.conn_teardown"),
		OrphansAborted: snap.Sum(".core.orphans_aborted"),
		SessionsMade:   snap.Sum(".core.sessions_made"),
		SessionsReaped: snap.Sum(".core.sessions_reaped"),
		LiveSessions:   snap.Sum(".core.sessions"),
		PortsInUse:     snap.Sum(".core.ports_in_use"),
		TimeWait:       snap.Sum(".tcp_state.time_wait"),
	}
}

// ChurnReport is a churn run's city report (one district, no router)
// with its conservation quantities promoted.
type ChurnReport struct {
	ChurnLaws
	*CityReport
}

const churnPort = 5001

// RunChurn builds the network, runs the workload to completion plus the
// drain period, and reads the registry into a report. Deterministic for
// a given config: two runs with the same seed produce byte-identical
// snapshots.
//
// The workload is the city driver on one router-less district: servers
// at 10.0.1.x, clients at 10.0.2.x/10.0.3.x, all on the default segment.
func RunChurn(cfg ChurnConfig) (*ChurnReport, error) {
	n := NewConfig(Config{Seed: cfg.Seed, Metrics: true})
	servers := make([]*Host, cfg.Servers)
	for i := range servers {
		servers[i] = n.Host(fmt.Sprintf("srv%d", i), fmt.Sprintf("10.0.1.%d", i+1), cfg.Arch)
	}
	clients := make([]*Host, cfg.Clients)
	for j := range clients {
		clients[j] = n.Host(fmt.Sprintf("cli%d", j), fmt.Sprintf("10.0.%d.%d", 2+j/200, j%200+1), cfg.Arch)
	}
	city, err := runCity(&cityNet{net: n, servers: [][]*Host{servers}, clients: [][]*Host{clients}}, CityConfig{
		Districts:          1,
		ServersPerDistrict: cfg.Servers,
		ClientsPerDistrict: cfg.Clients,
		ConnsPerClient:     cfg.ConnsPerClient,
		OrphanEvery:        cfg.OrphanEvery,
		MsgBytes:           cfg.MsgBytes,
	})
	if err != nil {
		return nil, err
	}
	return &ChurnReport{city.Churn, city}, nil
}
