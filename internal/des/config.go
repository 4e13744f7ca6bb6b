package des

import (
	"fmt"

	"repro/internal/benchjson"
	"repro/internal/ring"
	"repro/internal/workload"
)

// Defaults applied by Run to zero Scenario fields. They mirror the real
// daemon where a counterpart exists (queue depth, cache entries) so an
// unconfigured scenario models an unconfigured fleet.
const (
	DefaultWorkers      = 4
	DefaultQueueDepth   = 64   // dispatch.DefaultQueueDepth
	DefaultCacheEntries = 4096 // cache.DefaultMaxEntries
	DefaultKeys         = 1024
	DefaultZipfS        = 1.1
	DefaultRequests     = 10000
	DefaultRate         = 1000 // arrivals per second
	DefaultSolver       = "mpartition"
	DefaultN            = 200
	DefaultHitNS        = 20_000  // cache-hit service cost (decode + LRU + move replay)
	DefaultPeerNS       = 300_000 // peer /v1/peek round trip + store-through
	DefaultProbeDelayMS = 200     // router readyz probe lag
	DefaultFillWindowMS = 2000    // rebalanced -peer-fill default window shape
)

// FleetEvent is a scheduled membership change: a shard process dying
// (losing its queue, in-flight work, and cache) or (re)joining cold.
// The router observes either one probe-delay later.
type FleetEvent struct {
	// AtMS is the virtual time of the event in milliseconds.
	AtMS int64 `json:"at_ms"`
	// Shard indexes the fleet (0-based; shard i is named "si").
	Shard int `json:"shard"`
	// Kind is "kill" or "join".
	Kind string `json:"kind"`
}

// Scenario configures one simulation run. The JSON tags are the
// spec-file schema consumed by the hypothesis lab (internal/des/lab);
// fields excluded from JSON are programmatic inputs wired by callers.
type Scenario struct {
	// Seed drives every random stream (arrivals, key popularity,
	// service noise). Same seed ⇒ byte-identical event log, pinned by
	// TestSameSeedIdenticalLog.
	Seed uint64 `json:"seed"`
	// Requests is the number of open arrivals to generate.
	Requests int `json:"requests"`

	// Keys is the canonical-key population size: the number of distinct
	// solve requests in circulation. Two arrivals drawing the same rank
	// model permuted-but-identical instances colliding on one canonical
	// cache key (internal/cache key semantics).
	Keys int `json:"keys"`
	// ZipfS is the popularity exponent over key ranks (0 = uniform).
	ZipfS float64 `json:"zipf_s"`

	// Arrival selects the interarrival distribution: "poisson"
	// (default) or "gamma".
	Arrival string `json:"arrival,omitempty"`
	// Rate is the mean arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// ArrivalCV is the Gamma coefficient of variation (1 = Poisson).
	ArrivalCV float64 `json:"arrival_cv,omitempty"`

	// Shards is the fleet size; shard i is named "si" and placed on the
	// consistent-hash ring exactly as cmd/rebalrouter places real
	// shards.
	Shards int `json:"shards"`
	// VNodes is the ring's virtual-node count per member (0 = the
	// ring package default, 128).
	VNodes int `json:"vnodes,omitempty"`
	// Workers is the per-shard solver pool size.
	Workers int `json:"workers"`
	// QueueDepth bounds each shard's admission queue; an arrival
	// finding it full is rejected (the daemon's 429 fail-fast).
	QueueDepth int `json:"queue_depth"`
	// CacheEntries bounds each shard's canonical-key LRU; negative
	// disables caching (and with it single-flight coalescing, matching
	// the real dispatch core).
	CacheEntries int `json:"cache_entries"`

	// Solver and N select the service-time curve: the committed
	// BENCH.json ns/op for this solver at instance size N
	// (log-interpolated across the measured sizes).
	Solver string `json:"solver"`
	N      int    `json:"n"`
	// ServiceNS overrides the BENCH-derived mean engine time (0 = use
	// Bench).
	ServiceNS int64 `json:"service_ns,omitempty"`
	// HitNS is the service cost of a cache hit; PeerNS the cost of a
	// miss served by a peer's cache over /v1/peek.
	HitNS  int64 `json:"hit_ns,omitempty"`
	PeerNS int64 `json:"peer_ns,omitempty"`
	// ServiceDist shapes engine times: "fixed" (default; deterministic
	// BENCH mean) or "exp" (exponential around the mean, the M/M/c
	// model used by the analytic cross-checks).
	ServiceDist string `json:"service_dist,omitempty"`

	// Events is the fleet dynamics schedule (kills and joins).
	Events []FleetEvent `json:"events,omitempty"`
	// InitialDown lists shard indices that start down (joining later
	// via a "join" event).
	InitialDown []int `json:"initial_down,omitempty"`
	// ProbeDelayMS is the lag before the router's readyz prober
	// observes a membership change; until then traffic to a dead shard
	// fails over to its ring successor (the real router's
	// transport-error path).
	ProbeDelayMS int64 `json:"probe_delay_ms,omitempty"`
	// FillWindowMS is how long after a shard joins its misses probe the
	// previous owner's cache (X-Peer-Fill); 0 disables peer fill.
	FillWindowMS int64 `json:"fill_window_ms"`

	// Bench is the service-time source (required unless ServiceNS is
	// set). Callers load it with benchjson.LoadFile.
	Bench *benchjson.Snapshot `json:"-"`
	// RecordLog captures the full event log in Result.Log (the
	// determinism property tests diff it byte-for-byte).
	RecordLog bool `json:"-"`
	// KeyRanks, when non-nil, replaces the Zipf stream with an explicit
	// arrival key sequence (cmd/simvalidate replays the exact ranks a
	// real loadgen burst used).
	KeyRanks []int `json:"-"`
}

// withDefaults returns a copy with every zero field resolved, and
// validates the result.
func (s Scenario) withDefaults() (Scenario, error) {
	if s.Requests == 0 {
		s.Requests = DefaultRequests
	}
	if s.Keys == 0 {
		s.Keys = DefaultKeys
	}
	if s.ZipfS == 0 {
		s.ZipfS = DefaultZipfS
	}
	if s.Arrival == "" {
		s.Arrival = workload.ArrivalPoisson.String()
	}
	if s.Rate == 0 {
		s.Rate = DefaultRate
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.VNodes <= 0 {
		s.VNodes = ring.DefaultVNodes
	}
	if s.Workers == 0 {
		s.Workers = DefaultWorkers
	}
	if s.QueueDepth == 0 {
		s.QueueDepth = DefaultQueueDepth
	}
	if s.CacheEntries == 0 {
		s.CacheEntries = DefaultCacheEntries
	}
	if s.Solver == "" {
		s.Solver = DefaultSolver
	}
	if s.N == 0 {
		s.N = DefaultN
	}
	if s.HitNS == 0 {
		s.HitNS = DefaultHitNS
	}
	if s.PeerNS == 0 {
		s.PeerNS = DefaultPeerNS
	}
	if s.ServiceDist == "" {
		s.ServiceDist = "fixed"
	}
	if s.ProbeDelayMS == 0 {
		s.ProbeDelayMS = DefaultProbeDelayMS
	}

	switch {
	case s.Requests < 0:
		return s, fmt.Errorf("des: requests %d", s.Requests)
	case s.Keys < 1:
		return s, fmt.Errorf("des: keys %d", s.Keys)
	case s.ZipfS < 0:
		return s, fmt.Errorf("des: zipf_s %v", s.ZipfS)
	case s.Rate <= 0:
		return s, fmt.Errorf("des: rate %v", s.Rate)
	case s.Shards < 1:
		return s, fmt.Errorf("des: shards %d", s.Shards)
	case s.Workers < 1:
		return s, fmt.Errorf("des: workers %d", s.Workers)
	case s.QueueDepth < 1:
		return s, fmt.Errorf("des: queue_depth %d", s.QueueDepth)
	case s.ServiceDist != "fixed" && s.ServiceDist != "exp":
		return s, fmt.Errorf("des: service_dist %q (want fixed|exp)", s.ServiceDist)
	case s.ProbeDelayMS < 0 || s.FillWindowMS < 0:
		return s, fmt.Errorf("des: negative probe_delay_ms/fill_window_ms")
	case s.KeyRanks != nil && len(s.KeyRanks) < s.Requests:
		return s, fmt.Errorf("des: key_ranks has %d entries for %d requests", len(s.KeyRanks), s.Requests)
	}
	if _, err := workload.ParseArrivalDist(s.Arrival); err != nil {
		return s, err
	}
	for _, ev := range s.Events {
		if ev.Shard < 0 || ev.Shard >= s.Shards {
			return s, fmt.Errorf("des: event shard %d outside fleet of %d", ev.Shard, s.Shards)
		}
		if ev.Kind != "kill" && ev.Kind != "join" {
			return s, fmt.Errorf("des: event kind %q (want kill|join)", ev.Kind)
		}
		if ev.AtMS < 0 {
			return s, fmt.Errorf("des: event at_ms %d", ev.AtMS)
		}
	}
	for _, idx := range s.InitialDown {
		if idx < 0 || idx >= s.Shards {
			return s, fmt.Errorf("des: initial_down shard %d outside fleet of %d", idx, s.Shards)
		}
	}
	return s, nil
}

// ShardName returns the fleet-naming convention for shard i ("s0",
// "s1", …) shared by scenarios, results, and invariant checks.
func ShardName(i int) string { return fmt.Sprintf("s%d", i) }
