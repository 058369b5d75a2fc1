package psd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
)

// cityDigest runs a city and reduces it to a byte string that any
// equivalent run must reproduce exactly: the full merged trace, the
// metrics snapshot (minus its wall-clock-free but stop-time-dependent
// At stamp), the conservation quantities, the trunk frame ledgers, and
// the total event count. Per-shard and per-window quantities are
// deliberately excluded — they describe the execution, not the
// simulation.
func cityDigest(t *testing.T, cfg CityConfig) string {
	t.Helper()
	cfg.Trace = cityDigestLayers
	rep, err := RunCity(cfg)
	return reportDigest(t, cfg, rep, err)
}

var cityDigestLayers = []TraceLayer{TraceNet, TraceStack, TraceCore, TraceFilter}

// reportDigest is cityDigest's reduction of a finished run.
func reportDigest(t *testing.T, cfg CityConfig, rep *CityReport, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("RunCity(shards=%d single=%v): %v", cfg.Shards, cfg.SingleThreaded, err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("conservation (shards=%d single=%v): %v", cfg.Shards, cfg.SingleThreaded, err)
	}
	var b bytes.Buffer
	if err := trace.WriteText(&b, rep.Trace.Records()); err != nil {
		t.Fatal(err)
	}
	items, err := json.Marshal(rep.Snapshot.Items)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(items)
	laws, err := json.Marshal(rep.Churn)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(laws)
	b.Write(trunkLedgers(cfg, rep.Snapshot))
	fmt.Fprintf(&b, "dispatched=%d", rep.DispatchedTotal)
	return b.String()
}

// trunkLedgers reads each city trunk direction's frame ledger out of the
// snapshot, in creation order, as the JSON the reference digests were
// recorded with. Direction "<router>.t<d>" counts under
// "trunk.t<d>.<router>.t<d>.*"; its peer receives on the other router's
// port of the same name.
func trunkLedgers(cfg CityConfig, snap *MetricsSnapshot) []byte {
	type dir struct {
		Name      string `json:"name"`
		Sent      int64  `json:"sent"`
		Dup       int64  `json:"dup"`
		Delivered int64  `json:"delivered"`
		PeerRecv  int64  `json:"peer_recv"`
		Drops     int64  `json:"drops"`
		PartDrops int64  `json:"part_drops"`
	}
	get := func(name string) int64 {
		it, _ := snap.Get(name)
		return it.Value
	}
	var dirs []dir
	for d := 0; d < cfg.Districts; d++ {
		trunk := fmt.Sprintf("t%d", d)
		ends := [2]string{"bb", fmt.Sprintf("r%d", d)}
		for i, r := range ends {
			link, peer := r+"."+trunk, ends[1-i]
			sc := "trunk." + trunk + "." + link + "."
			dirs = append(dirs, dir{
				Name:      link,
				Sent:      get(sc + "frames_sent"),
				Dup:       get(sc + "frames_dup"),
				Delivered: get(sc + "delivery_events"),
				PeerRecv:  get("router." + peer + ".port." + peer + "." + trunk + ".rx_frames"),
				Drops:     get(sc+"drops_loss") + get(sc+"drops_down") + get(sc+"drops_malformed"),
				PartDrops: get(sc + "partition_drops"),
			})
		}
	}
	b, _ := json.Marshal(dirs)
	return b
}

// diffDigest reports the first line where two digests diverge, so a
// determinism break points at a specific trace record instead of a
// megabyte blob.
func diffDigest(t *testing.T, label, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("%s: digests diverge at line %d:\n  a: %s\n  b: %s", label, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s: digests diverge in length: %d vs %d lines", label, len(la), len(lb))
}

// TestCityConservation is the RunCity acceptance gate at test scale:
// the districted workload completes and every conservation law holds,
// classic and sharded.
func TestCityConservation(t *testing.T) {
	for _, shards := range []int{0, 2} {
		rep, err := RunCity(DefaultCity(1, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := rep.Check(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.Churn.OrphansAborted == 0 {
			t.Fatalf("shards=%d: no orphans aborted; OrphanEvery did not bite", shards)
		}
		// DefaultCity plans cross-district connections, so an idle trunk
		// means the routing (or the cross pattern) silently broke.
		for _, it := range rep.Snapshot.Items {
			if strings.HasPrefix(it.Name, "trunk.") && strings.HasSuffix(it.Name, ".frames_sent") && it.Value == 0 {
				t.Fatalf("shards=%d: %s carried no traffic", shards, it.Name)
			}
		}
	}
}

// TestCitySerialParallelIdentical is the tentpole oracle: the same
// sharded city run serially and on worker goroutines produces byte-
// identical traces, metrics, and ledgers. Run with -count=2 it also
// proves run-to-run determinism of each mode.
func TestCitySerialParallelIdentical(t *testing.T) {
	cfg := DefaultCity(42, 3)
	cfg.SingleThreaded = true
	serial := cityDigest(t, cfg)
	cfg.SingleThreaded = false
	parallel := cityDigest(t, cfg)
	diffDigest(t, "serial vs parallel", serial, parallel)
}

// TestCityShardCountInvariance pins the reshard guarantee: 1, 2, 8,
// and NumCPU shards — including counts above the district count, which
// leave shards empty — all reproduce the single-shard reference
// schedule exactly.
func TestCityShardCountInvariance(t *testing.T) {
	ref := cityDigest(t, DefaultCity(7, 1))
	counts := []int{2, 8, runtime.NumCPU()}
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, k := range counts {
		cfg := DefaultCity(7, k)
		diffDigest(t, fmt.Sprintf("shards=1 vs shards=%d", k), ref, cityDigest(t, cfg))
	}
}

// cityReferenceDigests pin the battery's two reference digests above
// (seed 42 on 3 shards, seed 7 on 1) in two parts: the SHA-256 of
// everything before the event count, and the event count itself. The
// body was recorded while every proc ran on its own goroutine and no run
// was closed; every shard count, threading mode and random topology of
// the battery reproduced it too. It was re-recorded twice since: when
// each router's snapshot gained a broadcast_drops counter (zero in both
// runs), and when the hosts' ledgers lost their offload_sw_ns component
// (zero in both runs; the old bodies hashed without those 32 items give
// the new ones). The count was re-pinned alone when the OS servers stopped
// spawning their 16 proxy workers up front: 512 start-up events fewer
// (16 on each of the 32 servers), nothing else moved.
var cityReferenceDigests = map[int64]struct {
	body       string
	dispatched int64
}{
	42: {"0ff3cbbdd2d08e3dc30ed4569c2fc3ccd77bd982e25134387bf38732dd18157c", 46509},
	7:  {"754a68865d7b75227c9c4295ec1314fee7a41e735b7244cb0f331b57cc5ad386", 46509},
}

// splitDigest splits a city digest into the SHA-256 of its body and
// its event count.
func splitDigest(t *testing.T, digest string) (body string, dispatched int64) {
	t.Helper()
	i := strings.LastIndex(digest, "dispatched=")
	if i < 0 {
		t.Fatalf("digest has no event count")
	}
	if _, err := fmt.Sscanf(digest[i:], "dispatched=%d", &dispatched); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(digest[:i]))
	return hex.EncodeToString(sum[:]), dispatched
}

// TestRunCityReleasesWorld: a finished city hands its threads back. The
// world is garbage once the run returns, a second run leaves no more
// goroutines behind than the first, and closing the run moves no trace
// record, counter or ledger. The Network sits in reference cycles (every
// subnet points back to it), which Go never finalizes, so the finalizer
// goes on a leaf that every host's stack holds: district 0's route table.
func TestRunCityReleasesWorld(t *testing.T) {
	run := func(cfg CityConfig) (digest string, freed chan struct{}) {
		cfg.Trace = cityDigestLayers
		c, err := buildCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		freed = make(chan struct{})
		runtime.SetFinalizer(c.net.subnets[0].routes, func(*stack.RouteTable) { close(freed) })
		rep, err := runCity(c, cfg)
		return reportDigest(t, cfg, rep, err), freed
	}
	var first int
	for i, cfg := range []CityConfig{DefaultCity(42, 3), DefaultCity(42, 3), DefaultCity(7, 1)} {
		digest, freed := run(cfg)
		body, dispatched := splitDigest(t, digest)
		want := cityReferenceDigests[cfg.Seed]
		if body != want.body {
			t.Errorf("seed %d: city digest body %s, want %s", cfg.Seed, body, want.body)
		}
		if dispatched != want.dispatched {
			t.Errorf("seed %d: %d events dispatched, want %d", cfg.Seed, dispatched, want.dispatched)
		}
		released := false
		for try := 0; try < 20 && !released; try++ {
			runtime.GC()
			select {
			case <-freed:
				released = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !released {
			t.Errorf("seed %d: the world outlived RunCity: district 0's route table is still reachable", cfg.Seed)
		}
		switch n := runtime.NumGoroutine(); i {
		case 0:
			first = n
		case 1:
			// Worker goroutines may still be on their way out.
			for wait := 0; wait < 100 && n > first; wait++ {
				time.Sleep(10 * time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > first {
				t.Errorf("%d goroutines after a second city run, %d after the first", n, first)
			}
		}
	}
}

// TestCityThreadBudget: a drained city holds on each host only the
// threads its work needed. Every OS server keeps its netin thread and
// the proxy workers its busiest moment called for; no host of the
// default city ever has two proxy calls in flight at once, so that is
// one worker, where a pool spawned up front would leave 16.
func TestCityThreadBudget(t *testing.T) {
	cfg := DefaultCity(42, 0)
	c, err := buildCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.net.Close()
	if _, err := driveCity(c, cfg); err != nil {
		t.Fatal(err)
	}
	// A thread is named "<host>/<process>.<...>.<thread>"; its kind is
	// the process and the thread, less any trailing index.
	perHost := map[string]map[string]int{}
	for _, name := range c.net.Sim().ParkedProcs() {
		host, rest, _ := strings.Cut(name, "/")
		proc, _, _ := strings.Cut(rest, ".")
		thread := strings.TrimRight(rest[strings.LastIndex(rest, ".")+1:], "0123456789")
		if perHost[host] == nil {
			perHost[host] = map[string]int{}
		}
		perHost[host][proc+"."+thread]++
	}
	if hosts := cfg.Districts * (cfg.ServersPerDistrict + cfg.ClientsPerDistrict); len(perHost) != hosts {
		t.Fatalf("threads on %d hosts, want %d", len(perHost), hosts)
	}
	for _, host := range slices.Sorted(maps.Keys(perHost)) {
		kinds := perHost[host]
		if kinds["os-server.netin"] != 1 || kinds["os-server.proxy-worker"] != 1 {
			t.Errorf("%s: %d netin and %d proxy-worker threads, want 1 and 1 (all: %v)",
				host, kinds["os-server.netin"], kinds["os-server.proxy-worker"], kinds)
		}
	}
}

// TestRunCityFailureReturnsError: a city run that fails while a server
// thread is still blocked in a socket receive returns the run's error.
// Closing the network unwinds that thread out of the stack's condition
// wait, where its deferred unlock finds the protocol lock dropped; that
// is teardown, not a panic out of RunCity.
func TestRunCityFailureReturnsError(t *testing.T) {
	for _, shards := range []int{0, 3} {
		cfg := DefaultCity(42, shards)
		c, err := buildCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if deadline := sim.Time(2 * time.Minute); c.net.group != nil {
			c.net.group.Deadline = deadline
		} else {
			c.net.sim.Deadline = deadline
		}
		srv := c.servers[0][0]
		app := srv.NewApp("stuck")
		srv.Spawn("stuck", func(p *Thread) {
			fd, err := app.Socket(p, SockDgram)
			if err == nil {
				err = app.Bind(p, fd, SockAddr{Port: 9})
			}
			if err != nil {
				t.Error(err)
				return
			}
			app.RecvFrom(p, fd, make([]byte, 16), 0) // nobody sends
		})
		rep, err := runCity(c, cfg)
		if err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Errorf("shards=%d: runCity = %v, %v; want the run's deadline error", shards, rep, err)
		}
	}
}

// TestCityClassicGroupLawsAgree checks the group scheduler against the
// classic single loop on the same topology: the metrics registry and
// every conservation quantity agree item for item (the trace is
// organized differently — lanes — so it is compared only within group
// mode).
func TestCityClassicGroupLawsAgree(t *testing.T) {
	classic, err := RunCity(DefaultCity(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := RunCity(DefaultCity(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(classic.Snapshot.Items)
	gj, _ := json.Marshal(grouped.Snapshot.Items)
	diffDigest(t, "classic vs group registry", string(cj), string(gj))
	if classic.DispatchedTotal != grouped.DispatchedTotal {
		t.Fatalf("dispatched: classic %d, group %d", classic.DispatchedTotal, grouped.DispatchedTotal)
	}
}

// TestCityPropertyRandomTopologies is the property test: random
// topology shapes and seeds, each run serially and in parallel, must
// match byte for byte. The shapes come from a fixed meta-seed so
// failures reproduce.
func TestCityPropertyRandomTopologies(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 2
	}
	meta := rand.New(rand.NewSource(20260808))
	for it := 0; it < iters; it++ {
		cfg := CityConfig{
			Seed:               meta.Int63(),
			Districts:          1 + meta.Intn(4),
			ServersPerDistrict: 1 + meta.Intn(2),
			ClientsPerDistrict: 1 + meta.Intn(4),
			ConnsPerClient:     1 + meta.Intn(3),
			CrossEvery:         meta.Intn(3),
			OrphanEvery:        meta.Intn(2) * 5,
			MsgBytes:           64 + meta.Intn(3)*192,
			Arch:               Decomposed(),
			TrunkProp:          time.Duration(1+meta.Intn(5)) * 500 * time.Microsecond,
		}
		cfg.Shards = 1 + meta.Intn(cfg.Districts+2)
		label := fmt.Sprintf("iter %d (seed=%d districts=%d shards=%d)", it, cfg.Seed, cfg.Districts, cfg.Shards)
		cfg.SingleThreaded = true
		serial := cityDigest(t, cfg)
		cfg.SingleThreaded = false
		parallel := cityDigest(t, cfg)
		diffDigest(t, label, serial, parallel)
	}
}

// TestChurnIsOneDistrictCity pins the collapse: flat churn is the city
// driver on one district, so RunChurn and RunCity on an explicitly built
// one-district city (which adds an idle router and trunk) agree on the
// plan and on all eight conservation quantities.
func TestChurnIsOneDistrictCity(t *testing.T) {
	churn, err := RunChurn(ChurnConfig{
		Seed: 3, Servers: 4, Clients: 12, ConnsPerClient: 4, OrphanEvery: 6, MsgBytes: 256, Arch: Decomposed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	city, err := RunCity(CityConfig{
		Seed: 3, Districts: 1, ServersPerDistrict: 4, ClientsPerDistrict: 12, ConnsPerClient: 4,
		OrphanEvery: 6, MsgBytes: 256, Arch: Decomposed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := churn.Check(); err != nil {
		t.Error(err)
	}
	if err := city.Check(); err != nil {
		t.Error(err)
	}
	if churn.Hosts != city.Hosts || churn.ConnsPlan != city.ConnsPlan {
		t.Errorf("plan: churn %d hosts / %d conns, city %d / %d", churn.Hosts, churn.ConnsPlan, city.Hosts, city.ConnsPlan)
	}
	if churn.ChurnLaws != city.Churn {
		t.Errorf("laws differ:\n churn %+v\n city  %+v", churn.ChurnLaws, city.Churn)
	}
	if churn.OrphansAborted == 0 {
		t.Error("no orphans aborted; the orphan path did not run")
	}
}

// TestCityKnownBadSeeds replays the four RunCity inputs that used to
// break conservation at the benchmark's city shape. Two TCP close-path
// defects were behind them: a TIME_WAIT pair answering each other's
// ACKs for ever (12 districts x seeds 7 and 24, 16 x 1), and a closed
// socket stuck in FIN_WAIT_2 after its orphaned peer's RST was dropped
// by a router (12 x 34). Unit tests for both are in internal/stack.
func TestCityKnownBadSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("500-host city runs skipped with -short")
	}
	for _, in := range []struct {
		districts int
		seed      int64
	}{{12, 7}, {12, 24}, {12, 34}, {16, 1}} {
		t.Run(fmt.Sprintf("%dx%d", in.districts, in.seed), func(t *testing.T) {
			rep, err := RunCity(CityConfig{
				Seed: in.seed, Districts: in.districts,
				ServersPerDistrict: 4, ClientsPerDistrict: 36, ConnsPerClient: 6,
				CrossEvery: 2, OrphanEvery: 7, MsgBytes: 256,
				Arch: Decomposed(), Shards: 2, Drain: 75 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Check(); err != nil {
				t.Error(err)
			}
		})
	}
}
