package measure

// This file registers the built-in measures. The walk kernels (dht, reach,
// ppr) execute on the internal/dht engines the join executors run; the
// simrank kernel scores through the shared fixed-point matrix
// (simrank.SharedMatrix).

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
	Register(Kernel{
		Name:        "simrank",
		Contract:    CertifiedEps,
		PlanMeasure: "simrank",
		// ε is the fixed point's iteration-gap bound: |s_k(a,b) − s(a,b)| ≤
		// C^(k+1) (Jeh & Widom, Prop. 2) at the default C and k.
		Doc: "SimRank fixed point (C=0.8, 10 iters, dense ≤4096 nodes); ε = C^(iters+1)",
	})
}
