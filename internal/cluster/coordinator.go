package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/service"
)

// This file is the coordinator: Node implements service.Router, so a 2-way
// join against a placed graph scatters to the live replica of every part
// (α-parallel) and merges the per-shard rank-ordered streams through the
// rank-join corner bound. Each shard's bound is the score of its last
// consumed line (+Inf before the first): since shard streams are
// non-increasing, a shard whose bound is below the current best head cannot
// contribute the next global result and is simply not pulled — which is how
// the global top-k stops shard streams early instead of draining the full
// O(|P|·|Q|) ranking of every part. Merging is bit-identical to the local
// evaluation because every stream orders by (score desc, TieKey asc), the
// parts partition the candidate space, and scores are position-independent
// (each shard walks the full replicated graph).

// RouteJoin2 implements service.Router. It claims the request when this
// node holds a placement for the graph and at least one part lives on a
// peer; anything else (unplaced graphs, single-node rings, all parts local)
// declines, leaving the service's local path — result cache included —
// untouched.
func (n *Node) RouteJoin2(ctx context.Context, graphName string, p, q service.SetRef, query service.Query) (join2.Stream, bool, error) {
	pl, ok := n.placementOf(graphName)
	if !ok {
		return nil, false, nil
	}
	pids, err := n.svc.ResolveSet(graphName, p)
	if err != nil {
		return nil, true, err
	}
	qids, err := n.svc.ResolveSet(graphName, q)
	if err != nil {
		return nil, true, err
	}
	ranges, err := graph.PartitionRanges(pl.Nodes, pl.Parts)
	if err != nil {
		return nil, true, err
	}
	// Split the parts between this node and peers. Every part whose owner
	// set includes self runs locally — and all such parts collapse into ONE
	// local stream (their P ids concatenate; the union of parts yields the
	// same ranking as merging them separately, at one admission grant
	// instead of several).
	var localP []graph.NodeID
	var shards []*shard
	for i, r := range ranges {
		part := graph.FilterRange(pids, r)
		if len(part) == 0 {
			continue
		}
		owners := n.ring.Owners(partKey(graphName, i), pl.Replicas)
		if hasMemberName(owners, n.self.Name) {
			localP = append(localP, part...)
			continue
		}
		if len(owners) == 0 {
			return nil, true, fmt.Errorf("cluster: no owners for %s", partKey(graphName, i))
		}
		shards = append(shards, &shard{
			n: n, graph: graphName, part: i, owners: owners,
			pids: part, qids: qids, query: query, bound: math.Inf(1),
		})
	}
	if len(shards) == 0 {
		// Everything is local: the plain path serves it better.
		return nil, false, nil
	}
	if len(localP) > 0 {
		shards = append(shards, &shard{
			n: n, graph: graphName, part: -1, local: true,
			pids: localP, qids: qids, query: query, bound: math.Inf(1),
		})
	}
	n.scatterQueries.Add(1)
	return &mergedStream{n: n, ctx: ctx, shards: shards, alpha: n.cfg.Alpha}, true, nil
}

func hasMemberName(ms []Member, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// shard is one rank-ordered source of the merge: either a remote part
// (streamed over RPC from its live replica, with failover down the owner
// list) or the combined local parts (a direct service stream).
type shard struct {
	n     *Node
	graph string
	part  int // -1 for the combined local shard
	local bool

	pids, qids []graph.NodeID
	query      service.Query

	// Remote state.
	owners      []Member
	ownerIdx    int
	rs          *RPCStream
	sinceCredit int

	// Local state.
	ls *service.Join2Stream

	started   bool
	head      join2.Result
	hasHead   bool
	bound     float64 // next-possible score: +Inf before the first line
	consumed  int     // lines pulled — the failover resume cursor
	exhausted bool
}

// next pulls the shard's next result into head. exhausted is sticky; an
// error is terminal (for remote shards, only after failover ran out of
// replicas).
func (sh *shard) next(ctx context.Context) error {
	if sh.exhausted || sh.hasHead {
		return nil
	}
	if sh.local {
		return sh.nextLocal(ctx)
	}
	return sh.nextRemote(ctx)
}

func (sh *shard) nextLocal(ctx context.Context) error {
	if sh.ls == nil {
		st, err := sh.n.svc.OpenJoin2(service.WithoutRouting(ctx), sh.graph,
			service.SetRef{IDs: sh.pids}, service.SetRef{IDs: sh.qids}, sh.query)
		if err != nil {
			return err
		}
		sh.ls = st
		sh.started = true
		sh.n.shardStreams.Add(1)
	}
	r, ok, err := sh.ls.Next()
	if err != nil {
		return err
	}
	if !ok {
		sh.exhausted = true
		return nil
	}
	sh.head, sh.hasHead = r, true
	sh.consumed++
	return nil
}

// nextRemote pulls one line from the part's live replica, failing over down
// the owner list on connection loss or stream error. The replacement shard
// resumes at Cursor=consumed: it recomputes the same bit-identical ranking,
// so the skip lands exactly where the dead replica stopped.
func (sh *shard) nextRemote(ctx context.Context) error {
	for {
		if sh.rs == nil {
			if sh.ownerIdx >= len(sh.owners) {
				return fmt.Errorf("cluster: all %d replicas of %s failed",
					len(sh.owners), partKey(sh.graph, sh.part))
			}
			owner := sh.owners[sh.ownerIdx]
			rs, err := sh.n.tr.OpenStream(owner.Addr, msgScatter, scatterBody{
				Graph: sh.graph, P: sh.pids, Q: sh.qids, Query: sh.query,
				Cursor: sh.consumed, Window: scatterWindow,
			})
			if err != nil {
				sh.failover(nil)
				continue
			}
			sh.rs = rs
			sh.started = true
			sh.sinceCredit = 0
			sh.n.shardStreams.Add(1)
		}
		env, err := sh.rs.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			sh.failover(sh.rs)
			continue
		}
		switch env.Type {
		case msgScatterLine:
			var line scatterLineBody
			if err := json.Unmarshal(env.Body, &line); err != nil {
				return fmt.Errorf("cluster: bad scatter line: %w", err)
			}
			sh.head = join2.Result{Pair: join2.Pair{P: line.P, Q: line.Q}, Score: line.Score}
			sh.hasHead = true
			sh.consumed++
			sh.sinceCredit++
			// Replenish the shard's window at half consumption so a stream
			// being drained never stalls on credit, while an early-stopped
			// stream wastes at most ~1.5 windows of shard work.
			if sh.sinceCredit >= scatterWindow/2 {
				_ = sh.rs.Send(msgScatterMore, moreBody{N: sh.sinceCredit})
				sh.sinceCredit = 0
			}
			return nil
		case msgScatterDone:
			var done scatterDoneBody
			_ = json.Unmarshal(env.Body, &done)
			sh.rs.Close()
			sh.rs = nil
			if done.Err != "" {
				if done.Retry {
					// Replica-local refusal (draining, quota): the next
					// replica may serve the part fine.
					sh.failover(nil)
					continue
				}
				// The shard's own evaluation failed (bad query, shard-side
				// budget): every replica would fail identically, so this is
				// terminal, not a failover.
				return errors.New(done.Err)
			}
			sh.exhausted = true
			return nil
		default:
			// Unknown mid-stream type: ignore (forward compatibility).
		}
	}
}

// failover abandons the current replica and advances to the next.
func (sh *shard) failover(rs *RPCStream) {
	if rs != nil {
		rs.Close()
		sh.rs = nil
	}
	sh.ownerIdx++
	sh.n.failovers.Add(1)
}

// release closes the shard's stream, counting an early stop if the stream
// had started but was not drained.
func (sh *shard) release() {
	if sh.started && !sh.exhausted {
		sh.n.earlyStops.Add(1)
	}
	if sh.rs != nil {
		sh.rs.Close()
		sh.rs = nil
	}
	if sh.ls != nil {
		sh.ls.Stop()
		sh.ls = nil
	}
}

// mergedStream is the coordinator's join2.Stream: the τ-bounded lazy merge
// of the shard streams.
type mergedStream struct {
	n      *Node
	ctx    context.Context
	shards []*shard
	alpha  int

	primed   bool
	released bool
	mu       sync.Mutex // guards released vs concurrent Release
}

// prime opens every shard stream and pulls its first head, α-parallel: at
// most alpha shards are in flight at once. The merge cannot emit anything
// before every shard has reported a head or exhaustion (an unseen shard's
// bound is +Inf), so priming them concurrently is pure latency win.
func (m *mergedStream) prime() error {
	m.primed = true
	sem := make(chan struct{}, m.alpha)
	errs := make([]error, len(m.shards))
	var wg sync.WaitGroup
	for i, sh := range m.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh *shard) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = sh.next(m.ctx)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// better orders heads by (score desc, canonical tie key asc) — the exact
// emission order of every local stream.
func better(a, b join2.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return join2.TieKey(a.Pair) < join2.TieKey(b.Pair)
}

// Next implements the corner-bound pull rule: find the best head; pull any
// headless shard whose bound could still beat or tie it (bound >= best
// score — a tying score can win on the tie key, so equality must be
// resolved by pulling); emit only when no un-pulled shard can contend.
func (m *mergedStream) Next() (join2.Result, bool, error) {
	if m.released {
		return join2.Result{}, false, nil
	}
	if !m.primed {
		if err := m.prime(); err != nil {
			return join2.Result{}, false, err
		}
	}
	for {
		var best *shard
		for _, sh := range m.shards {
			if sh.hasHead && (best == nil || better(sh.head, best.head)) {
				best = sh
			}
		}
		pulled := false
		for _, sh := range m.shards {
			if sh.exhausted || sh.hasHead {
				continue
			}
			if best != nil && sh.bound < best.head.Score {
				continue // the corner bound: this shard cannot contend yet
			}
			if err := sh.next(m.ctx); err != nil {
				return join2.Result{}, false, err
			}
			pulled = true
		}
		if pulled {
			continue
		}
		if best == nil {
			return join2.Result{}, false, nil // every shard exhausted
		}
		r := best.head
		best.hasHead = false
		best.bound = r.Score
		return r, true, nil
	}
}

// Release stops every shard stream (idempotent). Shards that had started
// but were not drained count as corner-bound early stops.
func (m *mergedStream) Release() {
	m.mu.Lock()
	if m.released {
		m.mu.Unlock()
		return
	}
	m.released = true
	m.mu.Unlock()
	for _, sh := range m.shards {
		sh.release()
	}
}
