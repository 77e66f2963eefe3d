package cluster

import (
	"fmt"
	"math/rand"
)

// Policy selects how the front end picks a replica node for each request.
type Policy int

const (
	// PolicyHash routes by query hash: replica index = hash(query) mod
	// replicas. Affinity routing — a query lands on the same replica
	// index for every shard, which is cache-friendly but blind to load.
	PolicyHash Policy = iota
	// PolicyRR deals requests round-robin over the candidate list.
	PolicyRR
	// PolicyP2C is power-of-two-choices: sample two distinct candidates
	// and send the request to the one with fewer outstanding requests
	// (ties to the lower node index). The classic result: exponentially
	// better max load than random/hash placement.
	PolicyP2C
)

func (p Policy) String() string {
	switch p {
	case PolicyHash:
		return "hash"
	case PolicyRR:
		return "rr"
	case PolicyP2C:
		return "p2c"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a config/CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "hash":
		return PolicyHash, nil
	case "rr", "round-robin":
		return PolicyRR, nil
	case "p2c", "power-of-two":
		return PolicyP2C, nil
	default:
		return 0, fmt.Errorf("cluster: unknown route policy %q (valid: hash, rr, p2c)", s)
	}
}

// Router is the front-end tier's replica selector. It owns the per-node
// outstanding-request counts that PolicyP2C consults; the cluster calls
// Done as requests complete. Deterministic: the p2c sampler draws from a
// seeded source consumed in event order, so identical runs make identical
// choices.
type Router struct {
	policy Policy
	rng    *rand.Rand
	rr     uint64
	load   []int    // outstanding requests per node
	peak   []int    // high-water outstanding per node
	routed []uint64 // total requests routed per node
}

// NewRouter builds a router over `nodes` servers.
func NewRouter(policy Policy, nodes int, seed int64) *Router {
	return &Router{
		policy: policy,
		rng:    rand.New(rand.NewSource(seed)),
		load:   make([]int, nodes),
		peak:   make([]int, nodes),
		routed: make([]uint64, nodes),
	}
}

// Policy reports the router's configured policy.
func (r *Router) Policy() Policy { return r.policy }

// mix64 is SplitMix64's finalizer — the stable request hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Pick selects one node among candidates for the request keyed by key,
// increments that node's outstanding and routed counts, and returns it.
// candidates must be non-empty; entries are node indices.
func (r *Router) Pick(key uint64, candidates []int) int {
	var n int
	switch {
	case len(candidates) == 1:
		n = candidates[0]
	case r.policy == PolicyRR:
		n = candidates[r.rr%uint64(len(candidates))]
		r.rr++
	case r.policy == PolicyP2C:
		i, j := 0, 1
		if len(candidates) > 2 {
			i = r.rng.Intn(len(candidates))
			j = r.rng.Intn(len(candidates) - 1)
			if j >= i {
				j++
			}
		}
		a, b := candidates[i], candidates[j]
		n = a
		if r.load[b] < r.load[a] || (r.load[b] == r.load[a] && b < a) {
			n = b
		}
	default: // PolicyHash
		n = candidates[mix64(key)%uint64(len(candidates))]
	}
	r.load[n]++
	if r.load[n] > r.peak[n] {
		r.peak[n] = r.load[n]
	}
	r.routed[n]++
	return n
}

// Done records the completion of a request previously routed to node.
func (r *Router) Done(node int) {
	if r.load[node] > 0 {
		r.load[node]--
	}
}

// LoadsInto appends every node's current outstanding count to dst and
// returns it — the flight recorder's allocation-free view of live queue
// depths (callers pass a reused scratch slice).
func (r *Router) LoadsInto(dst []int) []int {
	return append(dst, r.load...)
}

// Routed returns a copy of the per-node routed-request totals.
func (r *Router) Routed() []uint64 {
	return append([]uint64(nil), r.routed...)
}

// Peak returns a copy of the per-node high-water outstanding counts —
// the deepest each node's queue ever got.
func (r *Router) Peak() []int {
	return append([]int(nil), r.peak...)
}

// PeakImbalance reports max over mean of the per-node peak queue depths —
// how much deeper the worst node's queue ran than the typical one. 1.0 is
// perfectly even; zero before any request.
func (r *Router) PeakImbalance() float64 {
	var sum, max int
	for _, p := range r.peak {
		sum += p
		if p > max {
			max = p
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.peak))
	return float64(max) / mean
}

// Imbalance reports max over mean of the per-node routed totals — 1.0 is
// a perfectly even spread. Zero before any request.
func (r *Router) Imbalance() float64 {
	var sum, max uint64
	for _, n := range r.routed {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.routed))
	return float64(max) / mean
}
