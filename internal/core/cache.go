package core

import (
	"repro/internal/sim"
	"repro/internal/wire"
)

// MetaCache is the library's cache of shared protocol metastate (§3.3):
// ARP mappings (and, by extension, route decisions) owned by the
// operating-system server. Entries are warmed by session migration and by
// proxy_arp lookups; the server invalidates them through callbacks as
// they expire or change.
//
// MetaCache implements stack.Resolver. A hit costs nothing; a miss makes
// a blocking proxy call to the server. Misses only ever happen on
// application threads (a sendto to a brand-new peer) because migration
// warms the cache with the session peer's mapping before the library's
// receive path can need it.
type MetaCache struct {
	lib     *Library
	entries map[wire.IPAddr]wire.MAC

	Hits        int
	Misses      int
	Invalidated int
}

// NewMetaCache creates an empty cache bound to a library.
func NewMetaCache(lib *Library) *MetaCache {
	return &MetaCache{lib: lib, entries: make(map[wire.IPAddr]wire.MAC)}
}

// Insert warms the cache (session migration includes the peer's mapping).
func (c *MetaCache) Insert(ip wire.IPAddr, mac wire.MAC) {
	if mac == (wire.MAC{}) {
		return
	}
	c.entries[ip] = mac
}

// Invalidate drops an entry; the server calls this back when its
// authoritative table changes.
func (c *MetaCache) Invalidate(ip wire.IPAddr) {
	if _, ok := c.entries[ip]; ok {
		delete(c.entries, ip)
		c.Invalidated++
	}
}

// Len returns the number of cached entries.
func (c *MetaCache) Len() int { return len(c.entries) }

// ResolveOrQueue implements stack.Resolver.
func (c *MetaCache) ResolveOrQueue(t *sim.Proc, ip wire.IPAddr, frame []byte) (wire.MAC, bool) {
	if ip.IsBroadcast() {
		return wire.BroadcastMAC, true
	}
	if ip == c.lib.sys.Host.IP {
		return c.lib.sys.Host.NIC.MAC(), true
	}
	if mac, ok := c.entries[ip]; ok {
		c.Hits++
		return mac, true
	}
	c.Misses++
	call := c.lib.getCall(opARP)
	call.ip = ip
	c.lib.proxy(t, call, 16)
	mac, err := call.mac, call.err
	c.lib.putCall(call)
	if err != nil {
		return wire.MAC{}, false // the frame is dropped; upper layers recover
	}
	c.entries[ip] = mac
	return mac, true
}
