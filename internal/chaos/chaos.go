// Package chaos is a declarative, seed-deterministic fault scheduler for the
// simulated chains. A Scenario is a timeline of fault events — node crashes
// and restarts, network partitions and heals, per-link quality degradation,
// packet-loss bursts — that an Injector replays on the shared eventsim clock.
// Because every event fires at a fixed virtual time on the same scheduler
// that drives consensus and the network, a scenario is exactly reproducible:
// the same seed and scenario produce byte-identical runs, which is what lets
// resilience experiments (internal/experiments/faults.go) pin golden outputs.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"hammer/internal/eventsim"
	"hammer/internal/monitor"
	"hammer/internal/netsim"
)

// Kind enumerates fault event types.
type Kind string

// Fault event kinds.
const (
	// KindCrash marks the event's Nodes as down.
	KindCrash Kind = "crash"
	// KindRestart brings the event's Nodes back up.
	KindRestart Kind = "restart"
	// KindPartition splits the network into isolated groups — the two-sided
	// GroupA | GroupB form or the N-way Groups form; traffic across any cut
	// is dropped. On chains without an internal netsim network the injector
	// falls back to crashing every group except the largest.
	KindPartition Kind = "partition"
	// KindHeal removes the active partition (and restarts any nodes crashed
	// by a partition fallback).
	KindHeal Kind = "heal"
	// KindDegradeLink applies Quality (extra latency and/or loss) to the
	// directed link From -> To.
	KindDegradeLink Kind = "degrade-link"
	// KindClearLink removes a degradation from the link From -> To.
	KindClearLink Kind = "clear-link"
	// KindLossBurst overrides the global loss fraction with LossFrac for
	// Duration, then restores the configured value.
	KindLossBurst Kind = "loss-burst"
)

// Event is one entry in a scenario timeline. At is the offset from the
// injector's arm time (typically the start of the measurement window), on the
// simulation's virtual clock.
type Event struct {
	At   time.Duration
	Kind Kind

	// Nodes are the crash/restart targets (KindCrash, KindRestart).
	Nodes []string
	// GroupA and GroupB are the partition sides (KindPartition). For an
	// N-way split set Groups instead; the two forms are mutually exclusive.
	GroupA, GroupB []string
	// Groups is the N-way partition form (KindPartition): every listed group
	// is isolated from every other.
	Groups [][]string
	// From and To name the directed link (KindDegradeLink, KindClearLink).
	From, To string
	// Quality is the degradation to apply (KindDegradeLink).
	Quality netsim.LinkQuality
	// LossFrac is the override for a loss burst, in [0,1].
	LossFrac float64
	// Duration is how long a loss burst lasts.
	Duration time.Duration
}

// Scenario is a named fault timeline.
type Scenario struct {
	Name   string
	Events []Event
}

// Validate checks the scenario for malformed events: unknown kinds, missing
// targets, out-of-range probabilities, negative offsets.
func (s Scenario) Validate() error {
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("chaos: scenario %q event %d: negative offset %v", s.Name, i, ev.At)
		}
		switch ev.Kind {
		case KindCrash, KindRestart:
			if len(ev.Nodes) == 0 {
				return fmt.Errorf("chaos: scenario %q event %d: %s with no nodes", s.Name, i, ev.Kind)
			}
		case KindPartition:
			if len(ev.Groups) > 0 {
				if len(ev.GroupA) > 0 || len(ev.GroupB) > 0 {
					return fmt.Errorf("chaos: scenario %q event %d: partition sets both Groups and GroupA/GroupB", s.Name, i)
				}
				if len(ev.Groups) < 2 {
					return fmt.Errorf("chaos: scenario %q event %d: N-way partition needs at least two groups", s.Name, i)
				}
				for gi, g := range ev.Groups {
					if len(g) == 0 {
						return fmt.Errorf("chaos: scenario %q event %d: partition group %d is empty", s.Name, i, gi)
					}
				}
			} else if len(ev.GroupA) == 0 || len(ev.GroupB) == 0 {
				return fmt.Errorf("chaos: scenario %q event %d: partition needs two non-empty groups", s.Name, i)
			}
		case KindHeal:
			// no operands
		case KindDegradeLink:
			if ev.From == "" || ev.To == "" {
				return fmt.Errorf("chaos: scenario %q event %d: degrade-link needs From and To", s.Name, i)
			}
			if ev.Quality.LossFrac < 0 || ev.Quality.LossFrac > 1 {
				return fmt.Errorf("chaos: scenario %q event %d: link LossFrac %v outside [0,1]", s.Name, i, ev.Quality.LossFrac)
			}
			if ev.Quality.ExtraLatency < 0 {
				return fmt.Errorf("chaos: scenario %q event %d: negative ExtraLatency %v", s.Name, i, ev.Quality.ExtraLatency)
			}
		case KindClearLink:
			if ev.From == "" || ev.To == "" {
				return fmt.Errorf("chaos: scenario %q event %d: clear-link needs From and To", s.Name, i)
			}
		case KindLossBurst:
			if ev.LossFrac < 0 || ev.LossFrac > 1 {
				return fmt.Errorf("chaos: scenario %q event %d: LossFrac %v outside [0,1]", s.Name, i, ev.LossFrac)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("chaos: scenario %q event %d: loss burst needs a positive Duration", s.Name, i)
			}
		default:
			return fmt.Errorf("chaos: scenario %q event %d: unknown kind %q", s.Name, i, ev.Kind)
		}
	}
	return nil
}

// NodeFaulter is the liveness surface a chain exposes for fault injection;
// basechain.Base implements it for every simulated chain.
type NodeFaulter interface {
	Nodes() []string
	CrashNode(name string) bool
	RestartNode(name string) bool
	NodeDown(name string) bool
	DownCount() int
}

// networkProvider is implemented by chains with an internal netsim network
// (fabric, neuchain, meepo); partitions and link faults apply there.
// Chains without one (ethereum folds its network into the PoW interval) get
// the crash-fallback partition emulation instead.
type networkProvider interface {
	Network() *netsim.Network
}

// Applied records one fault event as it fired, for experiment logs.
type Applied struct {
	// At is the absolute virtual time the event fired.
	At time.Duration
	// Event is the scenario entry that fired.
	Event Event
	// Note documents substitutions, e.g. a partition emulated by crashes.
	Note string
}

// Injector replays a scenario against one chain on the shared scheduler.
type Injector struct {
	sched  eventsim.Sched
	target NodeFaulter
	net    *netsim.Network // nil when the chain has no internal network
	scen   Scenario
	reg    *monitor.Registry

	applied []Applied
	// partitionCrashed tracks nodes crashed by the partition fallback so a
	// heal restarts exactly those.
	partitionCrashed []string
}

// NewInjector validates the scenario against the target chain's registered
// nodes and capabilities. The registry is optional; when present the injector
// maintains the "chaos/events" counter, the "chaos/nodes_down" gauge, and a
// "chaos/recovery_seconds" gauge set by experiments.
func NewInjector(sched eventsim.Sched, target NodeFaulter, scen Scenario, reg *monitor.Registry) (*Injector, error) {
	if err := scen.Validate(); err != nil {
		return nil, err
	}
	known := make(map[string]bool)
	for _, n := range target.Nodes() {
		known[n] = true
	}
	var net *netsim.Network
	if np, ok := target.(networkProvider); ok {
		net = np.Network()
	}
	for i, ev := range scen.Events {
		var names []string
		names = append(names, ev.Nodes...)
		names = append(names, ev.GroupA...)
		names = append(names, ev.GroupB...)
		for _, g := range ev.Groups {
			names = append(names, g...)
		}
		for _, n := range names {
			if !known[n] {
				return nil, fmt.Errorf("chaos: scenario %q event %d: unknown node %q (have %v)", scen.Name, i, n, target.Nodes())
			}
		}
		if net == nil {
			switch ev.Kind {
			case KindDegradeLink, KindClearLink, KindLossBurst:
				return nil, fmt.Errorf("chaos: scenario %q event %d: %s requires a chain with an internal network", scen.Name, i, ev.Kind)
			}
		}
	}
	return &Injector{sched: sched, target: target, net: net, scen: scen, reg: reg}, nil
}

// Arm schedules every scenario event at start+Event.At on the virtual clock.
// Experiments call it from the driver's measurement-start hook so offsets are
// relative to the measured window, not to account setup.
func (inj *Injector) Arm(start time.Duration) {
	for _, ev := range inj.scen.Events {
		ev := ev
		inj.sched.At(start+ev.At, func() { inj.apply(ev) })
	}
}

// Applied returns the log of fired events in firing order.
func (inj *Injector) Applied() []Applied {
	return inj.applied
}

func (inj *Injector) apply(ev Event) {
	note := ""
	switch ev.Kind {
	case KindCrash:
		for _, n := range ev.Nodes {
			inj.target.CrashNode(n)
		}
	case KindRestart:
		for _, n := range ev.Nodes {
			inj.target.RestartNode(n)
		}
	case KindPartition:
		if inj.net != nil {
			inj.net.PartitionGroups(ev.partitionGroups())
		} else {
			note = inj.partitionByCrash(ev)
		}
	case KindHeal:
		if inj.net != nil {
			inj.net.Heal()
		}
		if len(inj.partitionCrashed) > 0 {
			for _, n := range inj.partitionCrashed {
				inj.target.RestartNode(n)
			}
			note = fmt.Sprintf("heal restarted %d fallback-crashed nodes", len(inj.partitionCrashed))
			inj.partitionCrashed = nil
		}
	case KindDegradeLink:
		inj.net.SetLinkQuality(ev.From, ev.To, ev.Quality)
	case KindClearLink:
		inj.net.ClearLinkQuality(ev.From, ev.To)
	case KindLossBurst:
		inj.net.SetLossFrac(ev.LossFrac)
		inj.sched.After(ev.Duration, func() { inj.net.ResetLossFrac() })
	}
	inj.applied = append(inj.applied, Applied{At: inj.sched.Now(), Event: ev, Note: note})
	if inj.reg != nil {
		inj.reg.Counter("chaos/events").Inc()
		inj.reg.Gauge("chaos/nodes_down").Set(float64(inj.target.DownCount()))
	}
}

// partitionGroups normalises the event's two partition forms into one group
// list: the N-way Groups field when set, otherwise [GroupA, GroupB].
func (ev Event) partitionGroups() [][]string {
	if len(ev.Groups) > 0 {
		return ev.Groups
	}
	return [][]string{ev.GroupA, ev.GroupB}
}

// partitionByCrash emulates a partition on chains without an internal
// network: every group except the largest goes dark, which from the
// surviving majority's view is indistinguishable from a crash. Ties break
// toward the earliest-listed group, so the fallback is deterministic for any
// group count. The heal event restarts the crashed nodes.
func (inj *Injector) partitionByCrash(ev Event) string {
	groups := ev.partitionGroups()
	largest := 0
	for i, g := range groups {
		if len(g) > len(groups[largest]) {
			largest = i
		}
	}
	crashed := 0
	for i, g := range groups {
		if i == largest {
			continue
		}
		for _, n := range g {
			if inj.target.CrashNode(n) {
				inj.partitionCrashed = append(inj.partitionCrashed, n)
				crashed++
			}
		}
	}
	sort.Strings(inj.partitionCrashed)
	return fmt.Sprintf("no internal network: %d-way partition emulated by crashing %d nodes outside the largest group", len(groups), crashed)
}

// Recovery summarises a chain's throughput response to a fault-and-heal
// scenario, computed from a per-second TPS series.
type Recovery struct {
	// BaselineTPS is the mean TPS over the pre-fault window.
	BaselineTPS float64
	// DipTPS is the minimum TPS between fault and heal.
	DipTPS float64
	// Recovered reports whether post-heal TPS regained Threshold×baseline.
	Recovered bool
	// RecoverySeconds is the time from the heal to the first second whose
	// TPS reached Threshold×baseline (-1 if never).
	RecoverySeconds int
}

// AnalyzeRecovery derives a Recovery from a per-second TPS series with the
// fault firing at faultSec and the heal at healSec (both indices into the
// series), judging recovery against threshold×baseline (e.g. 0.7).
func AnalyzeRecovery(series []float64, faultSec, healSec int, threshold float64) Recovery {
	r := Recovery{RecoverySeconds: -1}
	if len(series) == 0 || faultSec <= 0 || faultSec >= len(series) {
		return r
	}
	var sum float64
	for _, v := range series[:faultSec] {
		sum += v
	}
	r.BaselineTPS = sum / float64(faultSec)
	if healSec > len(series) {
		healSec = len(series)
	}
	r.DipTPS = series[faultSec]
	for _, v := range series[faultSec:healSec] {
		if v < r.DipTPS {
			r.DipTPS = v
		}
	}
	target := threshold * r.BaselineTPS
	for i := healSec; i < len(series); i++ {
		if series[i] >= target {
			r.Recovered = true
			r.RecoverySeconds = i - healSec
			return r
		}
	}
	return r
}
