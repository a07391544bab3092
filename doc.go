// Package repro is a from-scratch Go reproduction of Zhang, Cheng, and Kao,
// "Evaluating Multi-Way Joins over Discounted Hitting Time" (ICDE 2014).
//
// The public API lives in the dhtjoin subpackage, built around a
// query-centric streaming model: a dhtjoin.Query executes as a
// context-aware iter.Seq2 of rank-ordered results (break to stop the join
// early), with batch top-k calls kept as thin wrappers that drain the
// stream. The evaluation operator is chosen per query by a cost-based
// planner (internal/plan) over every served 2-way and n-way executor;
// Query.Explain reports the decision and Query.WithHints forces one. The
// implementation is in internal/ (graph substrate, DHT engine, 2-way
// joins, rank join, multi-way join operators, planner, synthetic datasets,
// evaluation, and experiment drivers), and cmd/njoind serves the same
// streams over HTTP as NDJSON. The benchmarks in this package regenerate
// every table and figure of the paper's evaluation section; see DESIGN.md
// and EXPERIMENTS.md.
package repro
