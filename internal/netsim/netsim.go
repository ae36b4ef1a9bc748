// Package netsim models the cluster network between simulated blockchain
// nodes: point-to-point links with propagation latency and finite bandwidth,
// matching the paper's testbed of 5 nodes joined by ~100 Mbps links. Message
// delivery is scheduled on the shared discrete-event scheduler, so network
// delay enters every consensus round trip.
//
// Beyond the healthy-cluster model, the network is a fault-injection target
// for the chaos subsystem (internal/chaos): Partition/Heal split the node set
// into isolated groups, SetLinkQuality degrades individual links with extra
// latency and loss, and SetLossFrac imposes a global loss burst. All fault
// state changes take effect at the virtual instant they are applied and are
// fully deterministic: with a fixed Config.Seed the delivery (and drop)
// schedule is byte-identical across runs.
package netsim

import (
	"fmt"
	"time"

	"hammer/internal/eventsim"
	"hammer/internal/randx"
)

// Config describes the homogeneous cluster network.
type Config struct {
	// Latency is the one-way propagation delay between two distinct nodes,
	// in virtual time. Must be >= 0.
	Latency time.Duration
	// BandwidthBps is the per-link bandwidth in BYTES per second (not
	// bits); zero means unlimited. Must be >= 0.
	BandwidthBps float64
	// JitterFrac randomises each delivery's propagation delay by a uniform
	// factor in [1-JitterFrac, 1+JitterFrac]. Dimensionless fraction in
	// [0, 1].
	JitterFrac float64
	// LossFrac silently drops this fraction of messages — failure
	// injection for testing the framework's timeout and drain paths.
	// Dimensionless probability in [0, 1].
	LossFrac float64
	// Seed seeds the jitter and loss streams. Any int64; equal seeds (with
	// equal configs and send sequences) reproduce identical delivery
	// schedules.
	Seed int64
}

// Validate rejects configurations that are physically meaningless: negative
// latency or bandwidth, or jitter/loss fractions outside [0, 1].
func (c Config) Validate() error {
	if c.Latency < 0 {
		return fmt.Errorf("netsim: Latency %v must be >= 0", c.Latency)
	}
	if c.BandwidthBps < 0 {
		return fmt.Errorf("netsim: BandwidthBps %f must be >= 0 (bytes/s, 0 = unlimited)", c.BandwidthBps)
	}
	if c.JitterFrac < 0 || c.JitterFrac > 1 {
		return fmt.Errorf("netsim: JitterFrac %f must be in [0, 1]", c.JitterFrac)
	}
	if c.LossFrac < 0 || c.LossFrac > 1 {
		return fmt.Errorf("netsim: LossFrac %f must be in [0, 1]", c.LossFrac)
	}
	return nil
}

// DefaultConfig approximates the paper's Aliyun cluster: 100 Mbps links with
// ~1 ms intra-datacenter latency.
func DefaultConfig() Config {
	return Config{
		Latency:      1 * time.Millisecond,
		BandwidthBps: 100e6 / 8, // 100 Mbps
		JitterFrac:   0.1,
		Seed:         1,
	}
}

// LinkQuality is a per-link degradation applied on top of the base Config:
// ExtraLatency is added to the one-way propagation delay, and LossFrac is an
// additional independent drop probability in [0, 1] for messages on that
// link.
type LinkQuality struct {
	ExtraLatency time.Duration
	LossFrac     float64
}

// Network delivers messages between named nodes over the virtual clock.
type Network struct {
	cfg   Config
	sched eventsim.Sched
	rng   *randx.Rand
	// busyUntil tracks per-link serialisation: a link transmits one message
	// at a time, so bandwidth limits queue large payloads.
	busyUntil map[string]time.Duration

	// fault-injection state (set by internal/chaos)
	// partition maps node name -> group id; messages between nodes in
	// different groups are dropped. Nil/absent nodes reach everyone.
	partition map[string]int
	// linkQuality holds per-link degradations keyed "from->to".
	linkQuality map[string]LinkQuality
	// lossOverride, when >= 0, replaces Config.LossFrac (loss burst).
	lossOverride float64

	// stats
	sent           int
	dropped        int
	partitionDrops int
	bytesSent      int64
}

// New builds a network on the given scheduler. Invalid configurations panic:
// like scheduling an event in the past, a negative bandwidth indicates a
// simulation bug, not a recoverable runtime condition. Callers wiring
// user-supplied values should run Config.Validate first.
func New(sched eventsim.Sched, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{
		cfg:          cfg,
		sched:        sched,
		rng:          randx.New(cfg.Seed),
		busyUntil:    make(map[string]time.Duration),
		lossOverride: -1,
	}
}

// Partition splits the network: nodes in a are isolated from nodes in b
// (messages in either direction are dropped) until Heal. Nodes in neither
// group keep full connectivity. Calling Partition again replaces the previous
// partition.
func (n *Network) Partition(a, b []string) {
	n.PartitionGroups([][]string{a, b})
}

// PartitionGroups splits the network into an arbitrary number of isolated
// groups: messages between nodes in different groups are dropped until Heal.
// Nodes in no group keep full connectivity; a node listed in several groups
// lands in the last one. Calling PartitionGroups again replaces the previous
// partition.
func (n *Network) PartitionGroups(groups [][]string) {
	n.partition = make(map[string]int)
	for i, g := range groups {
		for _, name := range g {
			n.partition[name] = i + 1
		}
	}
}

// Heal removes the current partition; all nodes regain full connectivity.
func (n *Network) Heal() {
	n.partition = nil
}

// Partitioned reports whether from->to traffic is currently blocked by a
// partition.
func (n *Network) Partitioned(from, to string) bool {
	if n.partition == nil {
		return false
	}
	ga, oka := n.partition[from]
	gb, okb := n.partition[to]
	return oka && okb && ga != gb
}

// SetLinkQuality degrades the directed link from->to: q.ExtraLatency is added
// to its propagation delay and q.LossFrac drops that fraction of its
// messages, on top of the global configuration. It panics on a LossFrac
// outside [0, 1].
func (n *Network) SetLinkQuality(from, to string, q LinkQuality) {
	if q.LossFrac < 0 || q.LossFrac > 1 {
		panic(fmt.Sprintf("netsim: SetLinkQuality LossFrac %f must be in [0, 1]", q.LossFrac))
	}
	if n.linkQuality == nil {
		n.linkQuality = make(map[string]LinkQuality)
	}
	n.linkQuality[from+"->"+to] = q
}

// ClearLinkQuality restores the directed link from->to to the base Config.
func (n *Network) ClearLinkQuality(from, to string) {
	delete(n.linkQuality, from+"->"+to)
}

// SetLossFrac imposes a global loss burst: frac replaces Config.LossFrac for
// every message until ResetLossFrac. It panics on a fraction outside [0, 1].
func (n *Network) SetLossFrac(frac float64) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("netsim: SetLossFrac %f must be in [0, 1]", frac))
	}
	n.lossOverride = frac
}

// ResetLossFrac ends a loss burst, restoring Config.LossFrac.
func (n *Network) ResetLossFrac() {
	n.lossOverride = -1
}

// lossFrac is the currently effective global loss probability.
func (n *Network) lossFrac() float64 {
	if n.lossOverride >= 0 {
		return n.lossOverride
	}
	return n.cfg.LossFrac
}

// Send schedules deliver to run on the virtual timeline after the link
// latency plus transmission time for size bytes. Messages between the same
// (from, to) pair are serialised, modeling a single TCP stream.
func (n *Network) Send(from, to string, size int, deliver func()) {
	if deliver == nil {
		panic("netsim: Send with nil deliver")
	}
	if n.Partitioned(from, to) {
		n.dropped++
		n.partitionDrops++
		return
	}
	link := from + "->" + to
	var lq LinkQuality
	if n.linkQuality != nil {
		lq = n.linkQuality[link]
	}
	// Loss draws consume the RNG stream only when a loss probability is
	// active, so fault-free runs stay byte-identical to the pre-chaos model.
	if loss := n.lossFrac(); loss > 0 && n.rng.Float64() < loss {
		n.dropped++
		return
	}
	if lq.LossFrac > 0 && n.rng.Float64() < lq.LossFrac {
		n.dropped++
		return
	}
	now := n.sched.Now()
	start := now
	if busy := n.busyUntil[link]; busy > start {
		start = busy
	}
	var xmit time.Duration
	if n.cfg.BandwidthBps > 0 && size > 0 {
		xmit = time.Duration(float64(size) / n.cfg.BandwidthBps * float64(time.Second))
	}
	n.busyUntil[link] = start + xmit
	delay := n.cfg.Latency
	if from == to {
		delay = 0
	}
	arrival := start + xmit + n.rng.Jitter(delay, n.cfg.JitterFrac) + lq.ExtraLatency
	n.sent++
	n.bytesSent += int64(size)
	n.sched.At(arrival, deliver)
}

// Broadcast sends size bytes from one node to every other named node.
func (n *Network) Broadcast(from string, peers []string, size int, deliver func(peer string)) {
	for _, p := range peers {
		if p == from {
			continue
		}
		peer := p
		n.Send(from, peer, size, func() { deliver(peer) })
	}
}

// RoundTrip estimates one request/response exchange of the given sizes,
// without scheduling anything. Chains use it for admission-time estimates.
func (n *Network) RoundTrip(reqSize, respSize int) time.Duration {
	var xmit time.Duration
	if n.cfg.BandwidthBps > 0 {
		xmit = time.Duration(float64(reqSize+respSize) / n.cfg.BandwidthBps * float64(time.Second))
	}
	return 2*n.cfg.Latency + xmit
}

// Stats reports messages and bytes sent so far.
func (n *Network) Stats() (messages int, bytes int64) {
	return n.sent, n.bytesSent
}

// Dropped reports messages lost to injected failures (loss draws plus
// partition drops).
func (n *Network) Dropped() int { return n.dropped }

// PartitionDrops reports messages lost to partitions specifically.
func (n *Network) PartitionDrops() int { return n.partitionDrops }

// String summarises the configuration.
func (n *Network) String() string {
	return fmt.Sprintf("netsim(latency=%v, bw=%.0fB/s)", n.cfg.Latency, n.cfg.BandwidthBps)
}
