package core

import "contsteal/internal/obs"

// metrics holds the runtime's metric instruments (Config.Metrics): one
// registry that every worker records into. The engine is sequential, so
// recording needs no lock, and the registration order — fixed here, then
// serve.sojourn at Serve start, then collectObs's counters — is the TSV's.
type metrics struct {
	reg        *obs.Registry
	stealLat   *obs.Hist // full latency of successful steals (protocol + payload + ctx switch)
	chainSteal *obs.Hist // deque steal-protocol chain latency, successful attempts
	chainFail  *obs.Hist // deque steal-protocol chain latency, failed attempts
	chainFree  *obs.Hist // remote-free latency at the freeing rank (LockQueue round trips or LocalCollection bit put)
	migrate    *obs.Hist // payload copy time per arriving migration
	ojWait     *obs.Hist // outstanding-join wait per resume (ready -> resumed)
	dequeOcc   *obs.Hist // own-deque occupancy sampled after each push

	// sojourn is the per-request end-to-end latency (serve mode only;
	// registered by Serve so closed-system metric output stays
	// byte-identical to pre-serve revisions).
	sojourn *obs.Hist
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	tb := obs.TimeBuckets()
	return &metrics{
		reg:        reg,
		stealLat:   reg.Hist("steal.latency", tb),
		chainSteal: reg.Hist("chain.steal", tb),
		chainFail:  reg.Hist("chain.steal.fail", tb),
		chainFree:  reg.Hist("chain.free.remote", tb),
		migrate:    reg.Hist("migrate.copy", tb),
		ojWait:     reg.Hist("oj.wait", tb),
		dequeOcc:   reg.Hist("deque.occupancy", obs.SmallCountBuckets()),
	}
}
