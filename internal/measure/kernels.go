package measure

// This file registers the built-in measures. Each kernel (dht, reach, ppr)
// executes on the internal/dht engines the join executors run.

import "repro/internal/dht"

func init() {
	Register(Kernel{
		Name:      "dht",
		Contract:  Exact,
		WalkBased: true,
		Walk:      dht.FirstHit,
		Doc:       "decayed hitting time (the paper's measure): first-hit walk fold, default DHTλ(0.2)",
	})
	Register(Kernel{
		Name:      "reach",
		Contract:  Exact,
		WalkBased: true,
		Walk:      dht.Reach,
		Doc:       "reach-probability fold of the caller's params (the walk may revisit the target)",
	})
	Register(Kernel{
		Name:          "ppr",
		Contract:      Exact,
		WalkBased:     true,
		Walk:          dht.Reach,
		DefaultParams: func(dht.Params) dht.Params { return dht.PPR(0.5) },
		LambdaParams:  dht.PPR,
		Doc:           "personalized PageRank (no self term): reach fold of dht.PPR(c), default c=0.5",
	})
}
