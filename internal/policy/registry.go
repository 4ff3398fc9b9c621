// Package policy is the single name table of replica-scheduling policies.
// Every layer that resolves a policy by name — the simulator pipeline
// (vodcluster.SchedulerFactory), the live dispatch daemon (serve.New),
// the sweep harness (vodsim -sweep -series), and the counterfactual
// lockstep runner (internal/exp, cmd/vodab) — resolves it here, so adding a
// policy in one place makes it available, listable, and comparable
// everywhere at once.
//
// The registry holds the simulator-side constructors (cluster.Scheduler);
// the serve layer keeps its lock-free dispatch rankers in internal/serve but
// advertises and validates their names through this table (Entry.Serve),
// so the two layers can never drift apart on what a name means.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"vodcluster/internal/cluster"
	"vodcluster/internal/redirect"
)

// Entry describes one named scheduling policy.
type Entry struct {
	// Name is the canonical policy name used on every command line.
	Name string
	// Description is the one-line summary -list-policies prints.
	Description string
	// NewScheduler constructs a fresh simulator-side policy instance per
	// run (instances may keep per-run state, so they are never shared).
	NewScheduler func() cluster.Scheduler
	// Serve reports that internal/serve ships a lock-free concurrent
	// implementation under the same name (the registry only advertises it;
	// serve.New constructs it).
	Serve bool
}

// registry is the ordered policy table; order is presentation order in
// listings and error messages. Guarded by nothing: registration happens at
// init time, lookups after.
var registry = []Entry{
	{
		Name:         "static-rr",
		Description:  "paper §3.2 static round-robin: requests rotate over a video's replicas in fixed order, no load awareness",
		NewScheduler: func() cluster.Scheduler { return cluster.StaticRoundRobin{} },
		Serve:        true,
	},
	{
		Name:         "first-available",
		Description:  "static rotation, but probes the remaining replicas before rejecting when the designated server is full",
		NewScheduler: func() cluster.Scheduler { return cluster.FirstAvailable{} },
		Serve:        true,
	},
	{
		Name:         "least-loaded",
		Description:  "serve from the replica holder with the most free outgoing bandwidth (strongest non-redirecting policy)",
		NewScheduler: func() cluster.Scheduler { return cluster.LeastLoaded{} },
		Serve:        true,
	},
	{
		Name:         "random",
		Description:  "uniformly random feasible replica holder; draws per-decision RNG streams so counterfactual runs stay paired",
		NewScheduler: func() cluster.Scheduler { return cluster.NewRandomHolder(0) },
		Serve:        false,
	},
}

// byName indexes the registry; rebuilt by Register.
var byName = buildIndex()

func buildIndex() map[string]int {
	idx := make(map[string]int, len(registry))
	for i, e := range registry {
		idx[e.Name] = i
	}
	return idx
}

// Register adds a policy to the registry. It is meant to be called from
// init functions of future policy packages (sharded, prefix-aware,
// federated dispatch); duplicate names and nil constructors are programming
// errors.
func Register(e Entry) error {
	if e.Name == "" || e.NewScheduler == nil {
		return fmt.Errorf("policy: entry needs a name and a constructor")
	}
	if _, ok := byName[e.Name]; ok {
		return fmt.Errorf("policy: %q is already registered", e.Name)
	}
	if strings.HasPrefix(e.Name, simPrefix) {
		return fmt.Errorf("policy: name %q collides with the %q serve-adapter prefix", e.Name, simPrefix)
	}
	registry = append(registry, e)
	byName[e.Name] = len(registry) - 1
	return nil
}

// Entries returns the registry in presentation order (a copy).
func Entries() []Entry {
	return append([]Entry(nil), registry...)
}

// Names returns every registered policy name in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Default is the policy an empty name resolves to — the paper's own
// dispatch model.
const Default = "static-rr"

// simPrefix marks the serve layer's snapshot-verified sim-parity forms.
const simPrefix = "sim:"

// Lookup resolves a policy name; the empty name resolves to Default. An
// unknown name yields an error listing every registered name.
func Lookup(name string) (Entry, error) {
	if name == "" {
		name = Default
	}
	if i, ok := byName[name]; ok {
		return registry[i], nil
	}
	return Entry{}, fmt.Errorf("policy: unknown policy %q (available: %s)", name, strings.Join(Names(), ", "))
}

// SchedulerFactory resolves a policy name to a per-run simulator
// constructor. withRedirect wraps the base policy with backbone request
// redirection (meaningful only when the problem defines backbone
// bandwidth).
func SchedulerFactory(name string, withRedirect bool) (func() cluster.Scheduler, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if !withRedirect {
		return e.NewScheduler, nil
	}
	return func() cluster.Scheduler { return redirect.New(e.NewScheduler()) }, nil
}

// ServeNames lists the names serve.New accepts: the lock-free concurrent
// policies first, then one "sim:" snapshot-verified sim-parity form per
// registry entry.
func ServeNames() []string {
	names := make([]string, 0, 2*len(registry))
	for _, e := range registry {
		if e.Serve {
			names = append(names, e.Name)
		}
	}
	for _, e := range registry {
		names = append(names, simPrefix+e.Name)
	}
	return names
}

// IsServeName reports whether name is accepted by serve.New: a lock-free
// serve policy, a "sim:" form of a registered scheduler, or the empty
// default.
func IsServeName(name string) bool {
	if name == "" {
		return true
	}
	if base, ok := strings.CutPrefix(name, simPrefix); ok {
		_, err := Lookup(base)
		return err == nil
	}
	i, ok := byName[name]
	return ok && registry[i].Serve
}

// UnknownServeError is the error serve.New returns for a name outside
// ServeNames, listing the accepted names from the registry.
func UnknownServeError(name string) error {
	return fmt.Errorf("policy: unknown serve policy %q (available: %s)", name, strings.Join(ServeNames(), ", "))
}

// List renders the simulator-side registry with one-line descriptions —
// the body of every -list-policies flag.
func List() string {
	var b strings.Builder
	w := 0
	for _, e := range registry {
		if len(e.Name) > w {
			w = len(e.Name)
		}
	}
	for _, e := range registry {
		layers := "sim"
		if e.Serve {
			layers = "sim+serve"
		}
		fmt.Fprintf(&b, "  %-*s  [%s]  %s\n", w, e.Name, layers, e.Description)
	}
	return b.String()
}

// ServeList renders the serve-layer name table with one-line descriptions:
// the lock-free policies, then the snapshot-verified sim-parity forms.
func ServeList() string {
	var b strings.Builder
	names := ServeNames()
	w := 0
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	for _, n := range names {
		if base, ok := strings.CutPrefix(n, simPrefix); ok {
			e, _ := Lookup(base)
			fmt.Fprintf(&b, "  %-*s  snapshot-verified sim-parity form: %s\n", w, n, e.Description)
			continue
		}
		e, _ := Lookup(n)
		fmt.Fprintf(&b, "  %-*s  lock-free: %s\n", w, n, e.Description)
	}
	return b.String()
}

// SortedNames returns the registered names sorted alphabetically — stable
// input for tests and docs that must not depend on registration order.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}
