package fastcap

import (
	"errors"
	"fmt"
	"math"

	"coscale/internal/core"
	"coscale/internal/policy"
)

// NodeEpoch is one node's outcome for one rebalancing epoch: the watts it
// was assigned, the power and worst slowdown its PowerCap decision is
// predicted to realize under that assignment, and whether the node was
// clamped to its all-minimum floor because the assignment (or the global
// budget itself) was infeasible.
type NodeEpoch struct {
	ID       string
	Assigned float64
	Power    float64
	MaxSlow  float64
	Clamped  bool
}

// rbNode is one managed node. Nodes live in a slice in Add order — no maps,
// so iteration order is deterministic by construction.
type rbNode struct {
	id   string
	cfg  policy.Config
	cap  *core.PowerCap
	ev   *policy.Evaluator
	f    Frontier
	prev uint64 // Float64bits of last epoch's assignment
}

// Rebalancer runs the fleet-level epoch loop: each epoch it rebuilds every
// node's frontier from that node's fresh observation, reallocates the
// global budget across the frontiers, and drives each node's core.PowerCap
// against its assigned slice. One Rebalancer per strategy; it is not safe
// for concurrent use.
type Rebalancer struct {
	alloc Allocator
	b     Builder

	nodes []rbNode

	// Scratch reused across epochs.
	anodes  []Node
	assigns []Assignment
	eval    policy.Eval

	rebalances int64
	epochs     int64
}

// NewRebalancer returns a rebalancer allocating under the given strategy.
func NewRebalancer(s Strategy) *Rebalancer {
	return &Rebalancer{alloc: Allocator{Strategy: s}}
}

// Strategy returns the allocation strategy this rebalancer runs.
func (r *Rebalancer) Strategy() Strategy { return r.alloc.Strategy }

// Len returns the number of managed nodes.
func (r *Rebalancer) Len() int { return len(r.nodes) }

// Rebalances returns how many epochs changed at least one node's
// assignment (Float64bits comparison against the previous epoch).
func (r *Rebalancer) Rebalances() int64 { return r.rebalances }

// AddNode registers a node. The initial per-node cap is a placeholder —
// the first Epoch call overwrites it with the node's real assignment.
func (r *Rebalancer) AddNode(id string, cfg policy.Config) error {
	if id == "" {
		return errors.New("fastcap: empty node ID")
	}
	for i := range r.nodes {
		if r.nodes[i].id == id {
			return fmt.Errorf("fastcap: duplicate node ID %q", id)
		}
	}
	pc, err := core.NewPowerCap(cfg, math.MaxFloat64)
	if err != nil {
		return fmt.Errorf("fastcap: node %q: %w", id, err)
	}
	r.nodes = append(r.nodes, rbNode{
		id:  id,
		cfg: cfg,
		cap: pc,
		ev:  &policy.Evaluator{UseTables: true},
	})
	return nil
}

// RemoveNode drops a node (a worker leaving the fleet mid-run), reporting
// whether it was present. Remaining nodes keep their relative order.
func (r *Rebalancer) RemoveNode(id string) bool {
	for i := range r.nodes {
		if r.nodes[i].id == id {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			return true
		}
	}
	return false
}

// NodeIDs appends the managed node IDs, in Add order, to dst.
func (r *Rebalancer) NodeIDs(dst []string) []string {
	for i := range r.nodes {
		dst = append(dst, r.nodes[i].id)
	}
	return dst
}

// Epoch runs one rebalancing round: obs holds one observation per node in
// Add order (the workload mix each node profiled this epoch). One
// NodeEpoch per node is appended to out (pass out[:0] to reuse). When the
// budget cannot cover the fleet's all-minimum floors, every node is
// clamped to its floor and the error wraps ErrBudgetInfeasible; the
// returned epochs are still valid actuations.
func (r *Rebalancer) Epoch(budget float64, obs []policy.Observation, out []NodeEpoch) ([]NodeEpoch, error) {
	if len(obs) != len(r.nodes) {
		return out, fmt.Errorf("fastcap: %d observations for %d nodes", len(obs), len(r.nodes))
	}
	if len(r.nodes) == 0 {
		return out, nil
	}

	r.anodes = r.anodes[:0]
	for i := range r.nodes {
		n := &r.nodes[i]
		if err := r.b.Build(&n.f, n.cfg, obs[i]); err != nil {
			return out, fmt.Errorf("fastcap: node %q: %w", n.id, err)
		}
		r.anodes = append(r.anodes, Node{ID: n.id, F: &n.f})
	}

	var err error
	r.assigns, err = r.alloc.Allocate(budget, r.anodes, r.assigns[:0])
	if err != nil && !errors.Is(err, ErrBudgetInfeasible) {
		return out, err
	}

	changed := false
	for i := range r.nodes {
		n := &r.nodes[i]
		asg := r.assigns[i]
		clamped := err != nil // global infeasibility clamps everyone

		// Drive the node's controller against its slice. PowerCap's
		// unbounded walk is the walk the frontier recorded (both on the
		// memoized table path), so an assignment at the frontier's floor
		// is feasible at the boundary rather than spuriously infeasible.
		if serr := n.cap.SetCap(asg.Watts); serr != nil {
			return out, fmt.Errorf("fastcap: node %q: %w", n.id, serr)
		}
		d, derr := n.cap.DecideCapped(obs[i])
		if derr != nil {
			if !errors.Is(derr, core.ErrCapInfeasible) {
				return out, fmt.Errorf("fastcap: node %q: %w", n.id, derr)
			}
			clamped = true
		}
		n.ev.Reset(n.cfg, obs[i])
		n.ev.EvaluateInto(&r.eval, d.CoreSteps, d.MemStep)

		out = append(out, NodeEpoch{
			ID:       n.id,
			Assigned: asg.Watts,
			Power:    r.eval.Power.Total,
			MaxSlow:  r.eval.MaxSlow,
			Clamped:  clamped,
		})
		bits := math.Float64bits(asg.Watts)
		if r.epochs > 0 && bits != n.prev {
			changed = true
		}
		n.prev = bits
	}
	if r.epochs == 0 || changed {
		r.rebalances++
	}
	r.epochs++
	return out, err
}
