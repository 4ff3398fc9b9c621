package serve

import (
	"vodcluster/internal/policy"
)

// Grant is one admitted stream's reservation: which server's outgoing link
// carries it, which replica feeds it, and the charged rate. The shard owner
// that commits an admission creates the grant (charging the Cluster) and
// whoever settles the session returns it through engine.release.
type Grant struct {
	Video      int
	Server     int
	Source     int
	Rate       int64 // bits/s charged to Server's outgoing link
	Redirected bool  // the stream crosses the backbone from Source to Server
}

// PolicyNames lists the accepted -policy values from the shared registry:
// the lock-free policies first, then the snapshot-verified sim-parity forms.
func PolicyNames() []string { return policy.ServeNames() }

// failover re-admits one stream of v onto the surviving holder with the most
// free outgoing bandwidth — the serve-layer counterpart of
// resilience.TryFailover (fixed-rate model, so the best copy is simply the
// least-loaded live holder). It walks the least-loaded ranking, so a lost
// reservation race falls through to the next-best holder. The evicted
// backend is already ineligible when the eviction scan runs, so the ranking
// skips it without an explicit exclusion.
func (e *engine) failover(v int) (Grant, bool) {
	rate := e.s.c.Rate(v)
	sc := e.getScratch()
	defer e.putScratch(sc)
	for _, b := range (llRanker{}).rank(e.s.c, v, rate, sc) {
		if e.reserve(b, rate) {
			return Grant{Video: v, Server: b, Source: b, Rate: rate}, true
		}
	}
	return Grant{}, false
}
