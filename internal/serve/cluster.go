package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"saco/internal/metrics"
	"saco/internal/shard"
)

// Cluster manages one replica's slice of a model fleet. The fleet
// lives under a shared root directory — one subdirectory per model
// name, each a Registry directory of versioned .sacm artifacts — and
// a consistent-hash ring over the static peer list decides which
// replica owns which name. The cluster opens registries only for owned
// names, polls them for fresh versions on a cadence, and rebalances
// (open newly-owned, drop disowned) whenever membership changes.
type ClusterOptions struct {
	// RescanEvery is the cadence of the background sweep that polls
	// owned registries for new versions and picks up newly created
	// model directories (default 2s; negative disables the sweep —
	// tests then drive Rebalance explicitly).
	RescanEvery time.Duration
	// Metrics is the registry the per-model gauges (active version,
	// registry swaps) and the router's forward counters register in;
	// nil gives the cluster a registry of its own, which a cluster
	// server built without one adopts.
	Metrics *metrics.Registry
}

// Cluster is safe for concurrent use: the request path reads the
// router and the owned map under a read lock; rebalances take the
// write lock.
type Cluster struct {
	root   string
	self   string
	table  *shard.Table
	router *shard.Router
	opt    ClusterOptions

	mu    sync.RWMutex
	owned map[string]*Registry

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCluster joins the static peer list as self and takes ownership of
// its slice of the models under root. self must appear in peers (it is
// added if missing) so every replica computes the same ring.
func NewCluster(root, self string, peers []string, opt ClusterOptions) (*Cluster, error) {
	if self == "" {
		return nil, fmt.Errorf("serve: cluster self address must be set")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	if opt.Metrics == nil {
		opt.Metrics = metrics.NewRegistry()
	}
	members := append([]string(nil), peers...)
	found := false
	for _, p := range members {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		members = append(members, self)
	}
	c := &Cluster{
		root:  root,
		self:  self,
		table: shard.NewTable(members, shard.DefaultVNodes),
		opt:   opt,
		owned: make(map[string]*Registry),
	}
	c.router = &shard.Router{Table: c.table, Self: self}
	c.router.Forwards = opt.Metrics.Counter("saco_forwards_total", "requests forwarded to the owning replica")
	c.router.ForwardErrors = opt.Metrics.Counter("saco_forward_errors_total", "forwards that failed")
	c.router.Retries = opt.Metrics.Counter("saco_forward_retries_total", "forward retries after a ring change")
	if err := c.Rebalance(); err != nil {
		return nil, err
	}
	if opt.RescanEvery >= 0 {
		every := opt.RescanEvery
		if every == 0 {
			every = 2 * time.Second
		}
		c.sweepStop = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweep(every)
	}
	return c, nil
}

// sweep is the background maintenance loop: rebalance (which also
// opens newly appeared model directories) and poll owned registries so
// versions published by peers or trainers get picked up.
func (c *Cluster) sweep(every time.Duration) {
	defer close(c.sweepDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			c.Rebalance() //nolint:errcheck // transient; retried next tick
			for _, reg := range c.ownedSorted() {
				reg.Poll() //nolint:errcheck // transient; retried next tick
			}
		}
	}
}

// Close stops the background sweep. Owned registries hold no goroutines
// of their own in cluster mode.
func (c *Cluster) Close() {
	if c.sweepStop != nil {
		close(c.sweepStop)
		<-c.sweepDone
		c.sweepStop, c.sweepDone = nil, nil
	}
}

// Ring returns the current ring.
func (c *Cluster) Ring() *shard.Ring { return c.table.Current() }

// SetMembers installs a new member set and rebalances against it.
func (c *Cluster) SetMembers(members []string) error {
	c.table.Set(members)
	return c.Rebalance()
}

// Registry returns the open registry for an owned model name, or nil.
func (c *Cluster) Registry(name string) *Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.owned[name]
}

// Owned returns the sorted names this replica currently serves.
func (c *Cluster) Owned() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return sortedNames(c.owned)
}

// ownedSorted returns the open registries in name order (deterministic
// sweep order; map iteration order must never leak into behavior).
func (c *Cluster) ownedSorted() []*Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	regs := make([]*Registry, 0, len(c.owned))
	for _, name := range sortedNames(c.owned) {
		regs = append(regs, c.owned[name])
	}
	return regs
}

func sortedNames(m map[string]*Registry) []string {
	names := make([]string, 0, len(m))
	for name := range m { //saco:nolint mapiter keys are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// missingModels returns owned names whose registry has no servable
// model yet (the readiness gate).
func (c *Cluster) missingModels() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var missing []string
	for _, name := range sortedNames(c.owned) {
		if c.owned[name].Current() == nil {
			missing = append(missing, name)
		}
	}
	return missing
}

// Ensure opens (creating the directory if needed) the registry for an
// owned name — the /learn path, where a model may not exist yet.
func (c *Cluster) Ensure(name string) (*Registry, error) {
	if reg := c.Registry(name); reg != nil {
		return reg, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg := c.owned[name]; reg != nil {
		return reg, nil
	}
	reg, err := OpenRegistry(filepath.Join(c.root, name))
	if err != nil {
		return nil, err
	}
	c.owned[name] = reg
	c.registerGauges(name, reg)
	return reg, nil
}

// Rebalance reconciles the owned map with the current ring and the
// model directories under root: open registries for newly owned names,
// drop (and unregister the gauges of) names the ring no longer assigns
// here. In-flight requests against a dropped registry finish against
// the model snapshot they already loaded.
func (c *Cluster) Rebalance() error {
	entries, err := os.ReadDir(c.root)
	if err != nil {
		return err
	}
	ring := c.table.Current()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Drop what the ring took away.
	for _, name := range sortedNames(c.owned) {
		if !ring.Owns(c.self, name) {
			c.unregisterGauges(name)
			delete(c.owned, name)
		}
	}
	// Open what it granted (ReadDir returns sorted entries).
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || c.owned[name] != nil || !ring.Owns(c.self, name) {
			continue
		}
		reg, err := OpenRegistry(filepath.Join(c.root, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("model %q: %w", name, err))
			continue
		}
		c.owned[name] = reg
		c.registerGauges(name, reg)
	}
	if len(errs) > 0 {
		return fmt.Errorf("serve: rebalance: %v", errs)
	}
	return nil
}

// registerGauges exposes per-model registry state; called with mu held.
func (c *Cluster) registerGauges(name string, reg *Registry) {
	mr := c.opt.Metrics
	mr.GaugeFunc("saco_model_active_version", "serving model version per owned model",
		func() float64 { return float64(reg.Version()) }, metrics.Label{Key: "model", Value: name})
	mr.GaugeFunc("saco_registry_swaps", "registry pointer swaps per owned model",
		func() float64 { return float64(reg.Swaps()) }, metrics.Label{Key: "model", Value: name})
}

// unregisterGauges removes a dropped model's series; called with mu
// held.
func (c *Cluster) unregisterGauges(name string) {
	mr := c.opt.Metrics
	mr.Unregister("saco_model_active_version", metrics.Label{Key: "model", Value: name})
	mr.Unregister("saco_registry_swaps", metrics.Label{Key: "model", Value: name})
}

// ClusterStatus is the GET /cluster reply.
type ClusterStatus struct {
	Self    string            `json:"self"`
	Members []string          `json:"members"`
	RingGen uint64            `json:"ring_gen"`
	VNodes  int               `json:"vnodes"`
	Owned   map[string]uint64 `json:"owned"` // model name → serving version (0 = none)
}

// Status snapshots the ring and owned slice.
func (c *Cluster) Status() ClusterStatus {
	ring := c.table.Current()
	st := ClusterStatus{
		Self:    c.self,
		Members: ring.Members(),
		RingGen: ring.Gen(),
		VNodes:  ring.VNodes(),
		Owned:   make(map[string]uint64),
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, name := range sortedNames(c.owned) {
		st.Owned[name] = c.owned[name].Version()
	}
	return st
}
