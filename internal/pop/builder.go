package pop

import (
	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/monitor"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/propagate"
	"akamaidns/internal/simtime"
	"akamaidns/internal/zone"
)

// MachineSpec configures one machine for BuildMachine.
type MachineSpec struct {
	ID string
	// Server configures the nameserver process; zero value takes
	// nameserver.DefaultConfig(ID).
	Server nameserver.Config
	// Agent configures the monitoring agent; zero value takes
	// monitor.DefaultAgentConfig(ID).
	Agent monitor.AgentConfig
	// Delayed marks an input-delayed instance: it never self-suspends on
	// staleness and its subscriptions carry the artificial input delay
	// (wired by the caller via pubsub.SubscribeInputDelayed).
	Delayed bool
	// Pipeline optionally attaches the scoring filters.
	Pipeline *filters.Pipeline
}

// BuildMachine assembles nameserver + monitoring agent for one machine and
// wires the crash hook. The agent is started; the default health probe
// (answer a test query per hosted zone) is installed.
func BuildMachine(sched *simtime.Scheduler, spec MachineSpec, store *zone.Store, coord *monitor.Coordinator) *Machine {
	cfg := spec.Server
	if cfg.ID == "" {
		cfg = nameserver.DefaultConfig(spec.ID)
	}
	if spec.Delayed {
		cfg.NoStalenessSuspend = true
	}
	eng := nameserver.NewEngine(store)
	srv := nameserver.NewServer(sched, cfg, eng, spec.Pipeline)
	acfg := spec.Agent
	if acfg.ID == "" {
		acfg = monitor.DefaultAgentConfig(spec.ID)
	}
	agent := monitor.NewAgent(propagate.SimClock{Sched: sched}, acfg, srv, coord)
	srv.OnCrash = agent.OnCrash
	// Test suite: one query per hosted zone must come back with an answer
	// or referral — "DNS queries for each DNS zone" (§4.2.1).
	agent.AddProbe(monitor.Probe{Name: "zone-queries", Run: func(now simtime.Time) error {
		return ProbeZones(eng)
	}})
	agent.Start()
	return &Machine{ID: spec.ID, Server: srv, Agent: agent, delayed: spec.Delayed}
}

// ProbeZones answers a synthetic apex SOA query for every hosted zone,
// returning an error on any unexpected RCODE.
func ProbeZones(eng *nameserver.Engine) error {
	for _, origin := range eng.Store.Origins() {
		q := newProbeQuery(origin)
		resp, _, crashed := eng.Answer(q, nameserver.ResolverKey("health-probe"))
		if crashed {
			return errProbe{origin.String() + ": crash"}
		}
		if resp.RCode != 0 {
			return errProbe{origin.String() + ": rcode " + resp.RCode.String()}
		}
	}
	return nil
}

type errProbe struct{ s string }

func (e errProbe) Error() string { return "probe: " + e.s }

func newProbeQuery(origin dnswire.Name) *dnswire.Message {
	return dnswire.NewQuery(0, origin, dnswire.TypeSOA)
}
