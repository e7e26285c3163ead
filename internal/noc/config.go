package noc

import (
	"fmt"

	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/fault"
)

// Port identifies one router port. Local connects the router to its tile's
// network interface.
type Port int

// Router ports.
const (
	East Port = iota
	West
	North
	South
	Local
	NumPorts
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Local:
		return "L"
	}
	return "?"
}

// opposite returns the peer's port for a link leaving via p.
func (p Port) opposite() Port {
	switch p {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	panic("noc: Local port has no opposite")
}

// FlowControl selects the switching policy (Section 3.3A discusses the
// interaction of each with in-network compression).
type FlowControl int

// Flow-control policies.
const (
	// Wormhole forwards flits as they arrive; packets may spread over
	// multiple routers (Table 2's configuration). In-network compression
	// then needs DISCO's separate-flit support or deep buffers.
	Wormhole FlowControl = iota
	// VirtualCutThrough forwards like wormhole but only allocates a
	// downstream VC that can hold the whole packet, so a blocked packet
	// collects entirely in one router. Requires BufDepth >= packet size.
	VirtualCutThrough
	// StoreAndForward holds every packet until fully received before
	// forwarding. Requires BufDepth >= packet size.
	StoreAndForward
)

// String implements fmt.Stringer.
func (f FlowControl) String() string {
	switch f {
	case Wormhole:
		return "wormhole"
	case VirtualCutThrough:
		return "vct"
	case StoreAndForward:
		return "saf"
	}
	return fmt.Sprintf("flowcontrol(%d)", int(f))
}

// Config describes the network. Zero values are filled by Default().
type Config struct {
	// K is the mesh radix (K×K routers). Table 2 uses 4 and 8.
	K int
	// VCs is the number of virtual channels per input port (Table 2: 2).
	VCs int
	// BufDepth is the per-VC buffer depth in flits (Table 2: 8).
	BufDepth int
	// FlowControl is the switching policy (default Wormhole, as Table 2).
	FlowControl FlowControl
	// Disco enables DISCO in-router compression when non-nil.
	Disco *disco.Config
	// Fault arms deterministic fault injection when non-nil and at least
	// one class rate is nonzero (see internal/fault). A nil or silent
	// spec adds zero overhead and leaves every artifact byte-identical.
	Fault *fault.Spec
}

// DefaultConfig returns the Table 2 network: 4×4 mesh, 2 VCs, 8-flit
// buffers, no DISCO.
func DefaultConfig() Config {
	return Config{K: 4, VCs: 2, BufDepth: 8}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("noc: mesh radix K must be >= 2, got %d", c.K)
	}
	if c.VCs < 1 {
		return fmt.Errorf("noc: need at least one VC, got %d", c.VCs)
	}
	if int(NumPorts)*c.VCs > 64 {
		// The router's live-occupancy bitmask assigns every VC one bit of
		// a uint64 (see Router.live), which caps VCs at 12 per port.
		return fmt.Errorf("noc: at most %d VCs per port (live-mask width), got %d",
			64/int(NumPorts), c.VCs)
	}
	if c.BufDepth < 2 {
		return fmt.Errorf("noc: buffer depth must be >= 2, got %d", c.BufDepth)
	}
	if c.FlowControl != Wormhole && c.BufDepth < maxPacketFlits {
		// VCT and store-and-forward hold whole packets in one VC; checked
		// here (not at Inject time) so misconfiguration fails before the
		// run starts instead of panicking mid-simulation.
		return fmt.Errorf("noc: %v flow control requires BufDepth >= %d for whole data packets, got %d",
			c.FlowControl, maxPacketFlits, c.BufDepth)
	}
	if c.Disco != nil {
		if err := c.Disco.Validate(); err != nil {
			return err
		}
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Nodes returns the node count K*K.
func (c *Config) Nodes() int { return c.K * c.K }

// XY returns node id's mesh coordinates.
func (c *Config) XY(id int) (x, y int) { return id % c.K, id / c.K }

// NodeAt returns the node id at mesh coordinates (x, y).
func (c *Config) NodeAt(x, y int) int { return y*c.K + x }

// Hops returns the Manhattan (XY-routed) hop distance between two nodes.
func (c *Config) Hops(a, b int) int {
	ax, ay := c.XY(a)
	bx, by := c.XY(b)
	return abs(ax-bx) + abs(ay-by)
}

// routePort computes the XY (dimension-ordered, X first: Table 2's
// routing) output port at node `here` for a packet destined to dst;
// Local when arrived.
func (c *Config) routePort(here, dst int) Port {
	hx, hy := c.XY(here)
	dx, dy := c.XY(dst)
	switch {
	case dx > hx:
		return East
	case dx < hx:
		return West
	case dy > hy:
		return South
	case dy < hy:
		return North
	}
	return Local
}

// neighbor returns the node id adjacent to `here` through port p, or -1
// at the mesh edge.
func (c *Config) neighbor(here int, p Port) int {
	x, y := c.XY(here)
	switch p {
	case East:
		x++
	case West:
		x--
	case North:
		y--
	case South:
		y++
	default:
		return -1
	}
	if x < 0 || x >= c.K || y < 0 || y >= c.K {
		return -1
	}
	return c.NodeAt(x, y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
