package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/store"
)

// scatterWindow is the default flow-control window of a shard stream: the
// shard may run at most this many lines ahead of the coordinator's
// acknowledged consumption, which bounds the work a corner-bound early stop
// can waste shard-side. The coordinator replenishes credit at half-window
// consumption, so a fully drained stream never stalls on credit.
const scatterWindow = 64

// Config sizes one cluster node.
type Config struct {
	// Name is the node's stable identity; its sha1 is the ring position, so
	// renaming a node moves it on the ring.
	Name string
	// Bind is the listen address for the cluster RPC port.
	Bind string
	// Advertise is the address peers are told to reach this node at; empty
	// selects the bound listener's address. Split from Bind for NAT and
	// container setups where the two differ.
	Advertise string
	// Replicas is K: each placement key lives on the K XOR-closest nodes.
	// 0 selects 2.
	Replicas int
	// Alpha bounds the scatter/placement fan-out concurrency. 0 selects 3.
	Alpha int
	// Service executes shard-local joins and registers placed graphs.
	Service *service.Service
	// DialTimeout/RPCTimeout bound peer dials and individual RPC exchanges
	// (a streaming exchange must produce its next envelope within
	// RPCTimeout). 0 selects 2s / 5s.
	DialTimeout time.Duration
	RPCTimeout  time.Duration
}

// placement records how one graph is sharded: the query-side node space
// [0, Nodes) splits into Parts contiguous ranges, and part i lives on the
// Replicas XOR-closest nodes to its placement key. Every holder stores the
// same descriptor, so any of them can coordinate.
type placement struct {
	Parts    int `json:"parts"`
	Replicas int `json:"replicas"`
	Nodes    int `json:"nodes"`
}

// partKey names one placement key on the ring.
func partKey(graphName string, part int) string {
	return fmt.Sprintf("%s/part-%d", graphName, part)
}

// Node is one cluster participant: it serves the RPC port (scatter requests,
// placement, pings) and coordinates scatter queries for graphs it holds a
// placement for, via the service.Router seam.
type Node struct {
	cfg  Config
	self Member
	ring *Ring
	tr   *Transport
	svc  *service.Service
	ln   net.Listener

	ctx    context.Context // node lifetime; cancelled by Close
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	placements map[string]placement
	closed     bool

	// Counters behind service.RouterStats.
	scatterQueries atomic.Int64
	shardStreams   atomic.Int64
	earlyStops     atomic.Int64
	failovers      atomic.Int64
	scatterServed  atomic.Int64
	placementsOut  atomic.Int64
	placementsIn   atomic.Int64
}

// Start binds the RPC listener and begins serving. The node knows only
// itself until Join (or inbound pings) populate the ring.
func Start(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: node needs a service")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Alpha < 1 {
		cfg.Alpha = 3
	}
	ln, err := net.Listen("tcp", cfg.Bind)
	if err != nil {
		return nil, err
	}
	adv := cfg.Advertise
	if adv == "" {
		adv = ln.Addr().String()
	}
	if cfg.Name == "" {
		// No explicit identity: the advertised address doubles as the stable
		// name — restart-stable for as long as the address is.
		cfg.Name = adv
	}
	self := Member{Name: cfg.Name, Addr: adv}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:        cfg,
		self:       self,
		ring:       NewRing(),
		tr:         newTransport(self, cfg.DialTimeout, cfg.RPCTimeout),
		svc:        cfg.Service,
		ln:         ln,
		ctx:        ctx,
		cancel:     cancel,
		placements: make(map[string]placement),
	}
	n.ring.Upsert(self)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Self returns the node's advertised identity.
func (n *Node) Self() Member { return n.self }

// Ring exposes the membership view (for /cluster and tests).
func (n *Node) Ring() *Ring { return n.ring }

// Addr returns the bound listener address (which Advertise defaults to).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops serving: the listener closes, in-flight shard work is
// cancelled, and outbound connections are torn down.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.cancel()
	_ = n.ln.Close()
	n.tr.Close()
	n.wg.Wait()
}

// Join announces the node to each seed peer and adopts the membership the
// seeds report back. Membership is static-plus-gossip: every inbound request
// also upserts its sender, so seeds learn joiners symmetrically. Seeds that
// refuse are retried until ctx expires: nodes of one deployment start
// concurrently, and a seed's listener coming up a beat later must not cost
// the joiner its membership (a missed join would otherwise persist — gossip
// is inbound-driven, so an unknown node hears nothing).
func (n *Node) Join(ctx context.Context, peers []string) error {
	pending := make([]string, 0, len(peers))
	for _, addr := range peers {
		if addr != "" && addr != n.self.Addr {
			pending = append(pending, addr)
		}
	}
	var lastErr error
	for len(pending) > 0 {
		retry := pending[:0]
		for _, addr := range pending {
			var pong pongBody
			if err := n.tr.Call(ctx, addr, msgPing, pingBody{}, &pong); err != nil {
				lastErr = fmt.Errorf("cluster: join via %s: %w", addr, err)
				retry = append(retry, addr)
				continue
			}
			for _, m := range pong.Members {
				n.ring.Upsert(m)
			}
		}
		if len(retry) == 0 {
			return nil
		}
		pending = retry
		select {
		case <-ctx.Done():
			return lastErr
		case <-n.ctx.Done():
			return lastErr
		case <-time.After(250 * time.Millisecond):
		}
	}
	return nil
}

// RouterStats snapshots the node's counters in the service's schema.
func (n *Node) RouterStats() service.RouterStats {
	return service.RouterStats{
		ScatterQueries:  n.scatterQueries.Load(),
		ShardStreams:    n.shardStreams.Load(),
		ShardEarlyStops: n.earlyStops.Load(),
		Failovers:       n.failovers.Load(),
		ScatterServed:   n.scatterServed.Load(),
		PlacementsOut:   n.placementsOut.Load(),
		PlacementsIn:    n.placementsIn.Load(),
	}
}

// placementOf returns the graph's placement descriptor, if this node holds
// one.
func (n *Node) placementOf(graphName string) (placement, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	pl, ok := n.placements[graphName]
	return pl, ok
}

func (n *Node) setPlacement(graphName string, pl placement) {
	n.mu.Lock()
	n.placements[graphName] = pl
	n.mu.Unlock()
}

// Placements lists the graphs this node holds placement descriptors for.
func (n *Node) Placements() map[string]struct{ Parts, Replicas, Nodes int } {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]struct{ Parts, Replicas, Nodes int }, len(n.placements))
	for name, pl := range n.placements {
		out[name] = struct{ Parts, Replicas, Nodes int }{pl.Parts, pl.Replicas, pl.Nodes}
	}
	return out
}

// PlaceGraph shards the locally loaded graph across the ring: the node space
// splits into parts ranges, part i's placement key owns the Replicas
// XOR-closest members, and every owner receives the graph's full segment
// (shards need the whole graph — walk scores traverse it — so partitioning
// applies to the query-side candidate space, not the edges) plus the
// placement descriptor. Shipping fans out α-parallel. parts < 1 selects the
// current ring size; replicas < 1 selects the node default.
func (n *Node) PlaceGraph(ctx context.Context, graphName string, parts, replicas int) error {
	if parts < 1 {
		parts = n.ring.Len()
	}
	if replicas < 1 {
		replicas = n.cfg.Replicas
	}
	g, sets, gen, err := n.svc.GraphData(graphName)
	if err != nil {
		return err
	}
	pl := placement{Parts: parts, Replicas: replicas, Nodes: g.NumNodes()}
	// Dedupe owners across parts: each target node receives one segment no
	// matter how many parts it owns.
	targets := make(map[string]Member)
	for i := 0; i < parts; i++ {
		for _, m := range n.ring.Owners(partKey(graphName, i), replicas) {
			if m.Name != n.self.Name {
				targets[m.Name] = m
			}
		}
	}
	n.setPlacement(graphName, pl)
	if len(targets) == 0 {
		return nil
	}
	seg := store.EncodeSegment(graphName, gen, g, sets)
	body := placeBody{Graph: graphName, Parts: parts, Replicas: replicas, Segment: seg}
	sem := make(chan struct{}, n.cfg.Alpha)
	errs := make(chan error, len(targets))
	for _, m := range targets {
		sem <- struct{}{}
		go func(m Member) {
			defer func() { <-sem }()
			var ok placeOKBody
			if err := n.tr.Call(ctx, m.Addr, msgPlace, body, &ok); err != nil {
				errs <- fmt.Errorf("cluster: place %s on %s: %w", graphName, m.Name, err)
				return
			}
			n.placementsOut.Add(1)
			errs <- nil
		}(m)
	}
	for range targets {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// FetchGraph pulls a placed graph's segment and placement from a peer and
// registers both locally — how a node outside a graph's owner set becomes
// able to coordinate queries for it.
func (n *Node) FetchGraph(ctx context.Context, peerAddr, graphName string) error {
	var resp fetchOKBody
	if err := n.tr.Call(ctx, peerAddr, msgFetch, fetchBody{Graph: graphName}, &resp); err != nil {
		return err
	}
	return n.adoptSegment(graphName, resp.Parts, resp.Replicas, resp.Segment)
}

// adoptSegment decodes, registers, and records a shipped graph.
func (n *Node) adoptSegment(graphName string, parts, replicas int, seg []byte) error {
	dec, err := store.DecodeSegment(seg)
	if err != nil {
		return err
	}
	if err := n.svc.LoadGraph(graphName, dec.Graph, dec.Sets); err != nil {
		return err
	}
	n.setPlacement(graphName, placement{Parts: parts, Replicas: replicas, Nodes: dec.Graph.NumNodes()})
	n.placementsIn.Add(1)
	return nil
}

// Wire bodies.

type pingBody struct{}

type pongBody struct {
	Members []Member `json:"members"`
}

type placeBody struct {
	Graph    string `json:"graph"`
	Parts    int    `json:"parts"`
	Replicas int    `json:"replicas"`
	Segment  []byte `json:"segment"` // store segment image (base64 on the wire)
}

type placeOKBody struct {
	Nodes int `json:"nodes"`
}

type fetchBody struct {
	Graph string `json:"graph"`
}

type fetchOKBody struct {
	Parts    int    `json:"parts"`
	Replicas int    `json:"replicas"`
	Segment  []byte `json:"segment"`
}

type scatterBody struct {
	Graph string         `json:"graph"`
	P     []graph.NodeID `json:"p"` // already restricted to the part's range
	Q     []graph.NodeID `json:"q"`
	// Query is the coordinator's resolved form (service.Query.pinned:
	// canonical measure name, explicit params, depth), so a shard has no
	// defaults left to apply and cannot disagree with the coordinator's
	// local evaluation. The struct itself is the wire form — floats survive
	// Go's JSON shortest-representation encoding bit-exactly — so a field
	// added to it travels without a hand copy (TestQueryWireRoundTrip).
	Query  service.Query `json:"query"`
	Cursor int           `json:"cursor,omitempty"` // lines to skip (failover resume)
	Window int           `json:"window"`           // initial flow-control credit
}

type scatterLineBody struct {
	P     graph.NodeID `json:"p"`
	Q     graph.NodeID `json:"q"`
	Score float64      `json:"score"`
}

type scatterDoneBody struct {
	Count int    `json:"count"`         // lines emitted after the cursor skip
	Err   string `json:"err,omitempty"` // non-empty marks a failed stream
	// Retry marks Err as replica-local (the shard is draining, over its
	// admission quota or shutting down): another replica may well serve the
	// same part, so the coordinator fails over instead of failing the query.
	// Evaluation errors leave it false — every replica would fail those
	// identically.
	Retry bool `json:"retry,omitempty"`
}

type moreBody struct {
	N int `json:"n"`
}

// Server side.

// scatterState is one in-flight inbound scatter stream: credits arrive from
// the coordinator's scatter.more messages, cancel fires on scatter.cancel or
// connection loss.
type scatterState struct {
	credits chan int
	cancel  chan struct{}
	once    sync.Once
}

func (st *scatterState) stop() { st.once.Do(func() { close(st.cancel) }) }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn runs one inbound connection: a single read loop parses request
// envelopes, dispatches each handler onto its own goroutine, and routes
// mid-stream messages (credits, cancels) to their scatter state by MsgID.
func (n *Node) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer c.Close() //nolint:errcheck // unblocks any in-flight writes
	var writeMu sync.Mutex
	rep := &Replier{c: c, writeMu: &writeMu, self: n.self, timeout: n.tr.rpcTimeout}
	var mu sync.Mutex
	streams := make(map[uint64]*scatterState)
	defer func() {
		mu.Lock()
		for _, st := range streams {
			st.stop()
		}
		mu.Unlock()
	}()
	stop := context.AfterFunc(n.ctx, func() { _ = c.Close() })
	defer stop()
	var hwg sync.WaitGroup
	defer hwg.Wait()
	for {
		env, err := readFrame(c)
		if err != nil {
			return
		}
		// Pull gossip: every request identifies its sender.
		if env.Node != "" && env.From != "" && env.Node != n.self.Name {
			n.ring.Upsert(Member{Name: env.Node, Addr: env.From})
		}
		switch env.Type {
		case msgPing:
			hwg.Add(1)
			go func(id uint64) {
				defer hwg.Done()
				_ = rep.Reply(id, msgPong, pongBody{Members: n.ring.Members()})
			}(env.MsgID)
		case msgPlace:
			hwg.Add(1)
			go func(env *Envelope) {
				defer hwg.Done()
				n.handlePlace(rep, env)
			}(env)
		case msgFetch:
			hwg.Add(1)
			go func(env *Envelope) {
				defer hwg.Done()
				n.handleFetch(rep, env)
			}(env)
		case msgScatter:
			st := &scatterState{credits: make(chan int, 16), cancel: make(chan struct{})}
			mu.Lock()
			streams[env.MsgID] = st
			mu.Unlock()
			hwg.Add(1)
			go func(env *Envelope) {
				defer hwg.Done()
				n.handleScatter(rep, env, st)
				mu.Lock()
				delete(streams, env.MsgID)
				mu.Unlock()
			}(env)
		case msgScatterMore:
			var mb moreBody
			if json.Unmarshal(env.Body, &mb) == nil && mb.N > 0 {
				mu.Lock()
				st := streams[env.MsgID]
				mu.Unlock()
				if st != nil {
					select {
					case st.credits <- mb.N:
					case <-st.cancel:
					}
				}
			}
		case msgScatterCancel:
			mu.Lock()
			st := streams[env.MsgID]
			mu.Unlock()
			if st != nil {
				st.stop()
			}
		default:
			rep.ReplyError(env.MsgID, fmt.Errorf("unknown message type %q", env.Type))
		}
	}
}

func (n *Node) handlePlace(rep *Replier, env *Envelope) {
	var body placeBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		rep.ReplyError(env.MsgID, err)
		return
	}
	if err := n.adoptSegment(body.Graph, body.Parts, body.Replicas, body.Segment); err != nil {
		rep.ReplyError(env.MsgID, err)
		return
	}
	pl, _ := n.placementOf(body.Graph)
	_ = rep.Reply(env.MsgID, msgPlaceOK, placeOKBody{Nodes: pl.Nodes})
}

func (n *Node) handleFetch(rep *Replier, env *Envelope) {
	var body fetchBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		rep.ReplyError(env.MsgID, err)
		return
	}
	pl, ok := n.placementOf(body.Graph)
	if !ok {
		rep.ReplyError(env.MsgID, fmt.Errorf("no placement for graph %q", body.Graph))
		return
	}
	g, sets, gen, err := n.svc.GraphData(body.Graph)
	if err != nil {
		rep.ReplyError(env.MsgID, err)
		return
	}
	seg := store.EncodeSegment(body.Graph, gen, g, sets)
	_ = rep.Reply(env.MsgID, msgFetchOK, fetchOKBody{Parts: pl.Parts, Replicas: pl.Replicas, Segment: seg})
}

// handleScatter executes one shard-local join and streams its rank-ordered
// results back under the request's MsgID. Routing is disabled for the local
// evaluation (the request was already routed once — a shard re-scattering
// its own part would recurse). The stream advances only under coordinator
// credit, and stops on cancel, node shutdown, or a dead connection.
func (n *Node) handleScatter(rep *Replier, env *Envelope, st *scatterState) {
	var body scatterBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		rep.ReplyError(env.MsgID, err)
		return
	}
	n.scatterServed.Add(1)
	query := body.Query
	if _, err := query.Resolve(); err != nil {
		_ = rep.Reply(env.MsgID, msgScatterDone, scatterDoneBody{Err: err.Error()})
		return
	}
	ctx, cancel := context.WithCancel(service.WithoutRouting(n.ctx))
	defer cancel()
	stream, err := n.svc.OpenJoin2(ctx, body.Graph,
		service.SetRef{IDs: body.P}, service.SetRef{IDs: body.Q}, query)
	if err != nil {
		// A draining or quota-saturated replica is a fact about this node,
		// not the query: tell the coordinator to try the next replica.
		retry := errors.Is(err, service.ErrDraining) || errors.Is(err, service.ErrQuotaExceeded)
		_ = rep.Reply(env.MsgID, msgScatterDone, scatterDoneBody{Err: err.Error(), Retry: retry})
		return
	}
	defer stream.Stop()
	// Failover resume: the replacement shard recomputes the identical
	// ranking (bit-identical streams are the system invariant), so skipping
	// Cursor lines resumes exactly where the dead replica stopped.
	// A stream error while this node shuts down (n.ctx cancelled under the
	// stream) is, like draining, a fact about this replica: the coordinator
	// retries the part on the next one instead of failing the query.
	for i := 0; i < body.Cursor; i++ {
		if _, ok, err := stream.Next(); err != nil || !ok {
			var done scatterDoneBody
			if err != nil {
				done.Err, done.Retry = err.Error(), n.ctx.Err() != nil
			}
			_ = rep.Reply(env.MsgID, msgScatterDone, done)
			return
		}
	}
	credit := body.Window
	if credit < 1 {
		credit = scatterWindow
	}
	count := 0
	for {
		for credit == 0 {
			select {
			case nmore := <-st.credits:
				credit += nmore
			case <-st.cancel:
				return
			case <-n.ctx.Done():
				return
			}
		}
		r, ok, err := stream.Next()
		if err != nil {
			_ = rep.Reply(env.MsgID, msgScatterDone, scatterDoneBody{Count: count, Err: err.Error(), Retry: n.ctx.Err() != nil})
			return
		}
		if !ok {
			_ = rep.Reply(env.MsgID, msgScatterDone, scatterDoneBody{Count: count})
			return
		}
		select {
		case <-st.cancel:
			return
		default:
		}
		line := scatterLineBody{P: r.Pair.P, Q: r.Pair.Q, Score: r.Score}
		if rep.Reply(env.MsgID, msgScatterLine, line) != nil {
			return // connection gone; the coordinator has failed over
		}
		count++
		credit--
	}
}
