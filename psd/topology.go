package psd

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/wire"
)

// Subnet is one routed Ethernet segment inside a Network: its own
// collision domain, bit rate, fault-injection scope, and a route table
// shared by every host attached to it. Hosts on different subnets reach
// each other through Routers.
type Subnet struct {
	net       *Network
	name      string
	sim       *sim.Sim
	seg       *simnet.Segment
	prefix    wire.IPAddr
	prefixLen int
	routes    *stack.RouteTable
	gw        wire.IPAddr
	hasGW     bool
}

// NewSubnet creates a routed segment on shard 0. cidr is the subnet
// prefix in "10.1.0.0/24" form; every host attached with Subnet.Host
// must carry an address inside it. Hosts get an on-link route for the
// prefix and, once a router attaches, a default route through the
// first router port.
func (n *Network) NewSubnet(name, cidr string) *Subnet {
	return n.NewSubnetOn(0, name, cidr)
}

// NewSubnetOn creates a routed segment owned by the given shard. A
// shared segment is one collision domain and must live wholly on one
// shard: its hosts and router ports land there too. Shards are joined
// only by trunks (NewTrunk).
func (n *Network) NewSubnetOn(shard int, name, cidr string) *Subnet {
	prefix, plen, err := ParseCIDR(cidr)
	if err != nil {
		panic(err)
	}
	ssim := n.shardSim(shard)
	seg := simnet.NewSegment(ssim)
	if n.reg != nil {
		seg.SetMetrics(n.reg.Scope("net." + name))
	}
	if n.rec != nil {
		seg.SetTrace(n.lane(ssim))
	}
	rt := stack.NewRouteTable()
	rt.Add(prefix, plen, wire.IPAddr{}, true)
	s := &Subnet{
		net:       n,
		name:      name,
		sim:       ssim,
		seg:       seg,
		prefix:    prefix.Mask(plen),
		prefixLen: plen,
		routes:    rt,
	}
	n.subnets = append(n.subnets, s)
	return s
}

// Name returns the subnet name.
func (s *Subnet) Name() string { return s.name }

// CIDR returns the subnet prefix in "10.1.0.0/24" form.
func (s *Subnet) CIDR() string { return fmt.Sprintf("%v/%d", s.prefix, s.prefixLen) }

// Host attaches a machine to the subnet; addr must fall inside the
// subnet's prefix.
func (s *Subnet) Host(name, addr string, arch Arch) *Host {
	ip, err := ParseIP(addr)
	if err != nil {
		panic(err)
	}
	if ip.Mask(s.prefixLen) != s.prefix {
		panic(fmt.Sprintf("psd: host %s address %s is outside subnet %s (%s)", name, addr, s.name, s.CIDR()))
	}
	return s.net.hostOn(s.sim, s.seg, s.routes, name, addr, arch)
}

// Segment exposes the subnet's raw Ethernet segment for monitoring.
func (s *Subnet) Segment() *simnet.Segment { return s.seg }

// SetBitRate changes the subnet's link speed (default 10 Mb/s). Slower
// uplink subnets are how scenarios create router-queue pressure.
func (s *Subnet) SetBitRate(bps int64) { s.seg.SetBitRate(bps) }

// Faults returns the subnet's fault injector. Host names and router
// port names ("<router>.<subnet>") are the link names.
func (s *Subnet) Faults() *fault.Injector { return s.seg.Faults() }

// ApplyFaultPlan schedules a compact-text fault plan on this subnet.
func (s *Subnet) ApplyFaultPlan(text string) error { return applyFaultPlan(s.Faults(), text) }

// Gateway returns the subnet's default-gateway address (the first
// router port attached), or false if no router has attached yet.
func (s *Subnet) Gateway() (wire.IPAddr, bool) { return s.gw, s.hasGW }

// Router forwards IP packets between subnets: longest-prefix routing,
// TTL decrement, ICMP time-exceeded/unreachable generation, and finite
// RED-managed egress queues per port.
type Router struct {
	net *Network
	r   *router.Router
}

// NewRouter creates a router on shard 0; call Attach to join it to
// subnets.
func (n *Network) NewRouter(name string) *Router {
	return n.NewRouterOn(0, name)
}

// NewRouterOn creates a router owned by the given shard. A router may
// only attach to subnets on its own shard; it reaches other shards
// over trunks.
func (n *Network) NewRouterOn(shard int, name string) *Router {
	r := &Router{net: n, r: router.New(n.shardSim(shard), name)}
	if n.reg != nil {
		r.r.BindMetrics(n.reg.Scope("router." + name))
	}
	n.routers = append(n.routers, r)
	return r
}

// Name returns the router name.
func (r *Router) Name() string { return r.r.Name() }

// Attach joins the router to a subnet with the given port address. The
// first router port on a subnet becomes the subnet's default gateway:
// every host on it gets a 0.0.0.0/0 route through this port. The port's
// fault-injector link name is "<router>.<subnet>". Returns the router
// for chaining.
func (r *Router) Attach(s *Subnet, addr string) *Router {
	ip, err := ParseIP(addr)
	if err != nil {
		panic(err)
	}
	if ip.Mask(s.prefixLen) != s.prefix {
		panic(fmt.Sprintf("psd: router %s port %s is outside subnet %s (%s)", r.Name(), addr, s.name, s.CIDR()))
	}
	p := r.r.Attach(s.seg, s.name, r.net.nextMAC(), ip, s.prefixLen)
	if r.net.reg != nil {
		p.BindMetrics(r.net.reg.Scope("router." + r.Name() + ".port." + p.LinkName()))
	}
	if !s.hasGW {
		s.gw = ip
		s.hasGW = true
		s.routes.Add(wire.IPAddr{}, 0, ip, false)
	}
	return r
}

// Trunk is a point-to-point full-duplex link joining two routers,
// usually on different shards: its propagation delay is the shard
// group's conservative lookahead (delays below sim.MinLookahead clamp
// to it), and trunks are the only legal place to cut a sharded
// topology. Each direction has its own serialization medium, fault
// stream, counters, and trace lane, all single-writer on the sending
// or receiving shard.
type Trunk struct {
	net       *Network
	name      string
	seg       *simnet.Segment
	prefix    wire.IPAddr
	prefixLen int
	dirs      []*simnet.NIC // attach order
}

// NewTrunk creates a trunk link with its own small prefix (typically a
// /30) and propagation delay. Attach exactly two routers to it.
func (n *Network) NewTrunk(name, cidr string, prop time.Duration) *Trunk {
	prefix, plen, err := ParseCIDR(cidr)
	if err != nil {
		panic(err)
	}
	seg := simnet.NewTrunk(n.sim, prop)
	t := &Trunk{net: n, name: name, seg: seg, prefix: prefix.Mask(plen), prefixLen: plen}
	n.trunks = append(n.trunks, t)
	return t
}

// Name returns the trunk name.
func (t *Trunk) Name() string { return t.name }

// Prop returns the trunk's propagation delay after clamping.
func (t *Trunk) Prop() time.Duration { return t.seg.Prop() }

// Segment exposes the trunk's raw segment for monitoring.
func (t *Trunk) Segment() *simnet.Segment { return t.seg }

// Faults returns the trunk's fault injector. The two directions are
// the links, named "<router>.<trunk>".
func (t *Trunk) Faults() *fault.Injector { return t.seg.Faults() }

// Attach joins a router to the trunk with the given port address. The
// port lands on the router's own shard; the port's link name — and its
// metrics scope "trunk.<name>.<router>.<name>" — follow the router.
// Returns the trunk for chaining.
func (t *Trunk) Attach(r *Router, addr string) *Trunk {
	ip, err := ParseIP(addr)
	if err != nil {
		panic(err)
	}
	if ip.Mask(t.prefixLen) != t.prefix {
		panic(fmt.Sprintf("psd: router %s port %s is outside trunk %s (%v/%d)",
			r.Name(), addr, t.name, t.prefix, t.prefixLen))
	}
	n := t.net
	p := r.r.Attach(t.seg, t.name, n.nextMAC(), ip, t.prefixLen)
	nic := p.NIC()
	if n.reg != nil {
		nic.DirStats().Bind(n.reg.Scope("trunk." + t.name + "." + p.LinkName()))
		p.BindMetrics(n.reg.Scope("router." + r.Name() + ".port." + p.LinkName()))
	}
	if n.rec != nil {
		nic.SetTrace(n.lane(nic.Sim()))
	}
	t.dirs = append(t.dirs, nic)
	return t
}

// AddRoute installs a static route on the router: destinations in cidr
// go through gateway via, which must be on one of the router's attached
// subnets. Used to chain routers into multi-hop paths.
func (r *Router) AddRoute(cidr, via string) error {
	dest, plen, err := ParseCIDR(cidr)
	if err != nil {
		return err
	}
	gw, err := ParseIP(via)
	if err != nil {
		return err
	}
	return r.r.AddRoute(dest, plen, gw)
}

// Stats exposes the router's forwarding counters.
func (r *Router) Stats() *router.Stats { return &r.r.Stats }

// Ports returns the router's ports in attach order.
func (r *Router) Ports() []*router.Port { return r.r.Ports() }

// ParseCIDR parses "10.1.0.0/24" into a masked prefix and length.
func ParseCIDR(s string) (wire.IPAddr, int, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return wire.IPAddr{}, 0, fmt.Errorf("psd: bad CIDR %q (want a.b.c.d/len)", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return wire.IPAddr{}, 0, err
	}
	plen, ok := decimal(s[slash+1:], 32)
	if !ok {
		return wire.IPAddr{}, 0, fmt.Errorf("psd: bad CIDR %q (prefix length)", s)
	}
	return ip.Mask(plen), plen, nil
}

// Routers returns the network's routers in creation order.
func (n *Network) Routers() []*Router { return n.routers }
