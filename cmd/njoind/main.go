// Command njoind is the long-lived join server: it keeps a bounded registry
// of named graphs in memory and serves top-k 2-way and n-way DHT joins over
// HTTP/JSON, reusing engines and recent result prefixes across requests (see
// internal/service). Results are bit-identical to the corresponding one-shot
// dhtjoin calls.
//
// Usage:
//
//	njoind -addr :8080
//	njoind -addr :8080 -graph yeast=yeast.graph -graph dblp=dblp.graph
//	njoind -addr :8080 -data-dir /var/lib/njoind
//
// With -data-dir the registry is durable: PUT writes a checksummed snapshot
// segment, edge updates append to a per-graph WAL (folded into a fresh
// snapshot every -snapshot-every records or -snapshot-bytes bytes), DELETE
// removes the on-disk state, and a restart recovers every persisted graph —
// validating checksums, truncating torn WAL tails, and falling back to the
// previous snapshot generation when the newest is corrupt — before serving.
//
// API (JSON; see internal/service.NewHandler):
//
//	PUT    /graphs/{name}   load a text-format graph (request body = file)
//	GET    /graphs          list loaded graphs
//	DELETE /graphs/{name}   drop a graph (and its durable state)
//	POST   /graphs/{name}/edges  atomic edge-update batch ({"add":[...],"del":[...]})
//	POST   /join2           {"graph":"g","p":{"set":"U"},"q":{"set":"D"},"k":10}
//	POST   /joinN           {"graph":"g","sets":[...],"shape":"chain","k":5}
//	GET    /score           ?graph=g&u=3&v=8
//	GET    /explain         ?graph=g&p=U&q=D&k=10 (dry-run plan, named sets)
//	GET    /measures        registered scoring measures (name, contract, family)
//	GET    /stats           service counters (incl. planner picks and persistence)
//	GET    /metrics         the same counters in Prometheus text format
//
// Every join scores under a registered measure (internal/measure): add
// "measure":"ppr" (or "simrank", "reach", ...) to options; the default is
// the paper's "dht". Unknown names are a 400 listing the registry.
//
// Cluster mode (see internal/cluster) starts when -cluster-addr is set: the
// node serves a Kademlia-style RPC port, joins the ring via -peers, and two
// extra endpoints appear — POST /cluster/place?graph=g shards a loaded graph
// across the ring (full-graph replicas; the query-side candidate space is
// what partitions), and GET /cluster reports membership, placements, and
// scatter counters. 2-way joins against a placed graph scatter to the live
// replica of every part and merge shard streams through the rank-join corner
// bound, bit-identical to a single-node evaluation. -advertise splits the
// announced address from the bound one (NAT/containers); -node-id pins the
// ring identity independently of addresses.
//
// The execution algorithm is chosen per request by the cost-based planner
// (internal/plan) over the graph's structural stats and the request's
// shape; add "algo":"B-BJ" (etc.) to options to force one, and
// "explain":true to either join body for a dry-run {"plan":...} response
// instead of results.
//
// Both join endpoints stream: add "stream":true to receive NDJSON — one
// rank-ordered result per line, flushed as the joiners confirm it, ended by
// a {"done":true,...} terminator ("k":0 streams until the ranking is
// exhausted). Add "cursor":n to resume after the first n results — the
// "next page" continuation; non-streaming responses with a cursor carry
// "next_cursor" and "exhausted". Handlers run under the request context:
// closing the connection mid-stream aborts the join and returns its engines
// to the server's pool. Errors are {"error":{"status":...,"message":...}}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/measure"
	"repro/internal/service"
	"repro/internal/store"
)

// graphFlags collects repeated -graph name=path pairs.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxGraphs     = flag.Int("max-graphs", 0, "graph registry capacity (0 = default 16)")
		maxSessions   = flag.Int("max-sessions", 0, "session cache capacity (0 = default 32)")
		resultCache   = flag.Int("result-cache", 0, "per-session result LRU capacity (0 = default 128, negative disables)")
		maxConc       = flag.Int("max-concurrency", 0, "joins in flight (0 = GOMAXPROCS)")
		defaultBudget = flag.Duration("default-budget", 0, "deadline budget applied to queries that carry none (0 = none)")
		maxBudget     = flag.Duration("max-budget", 0, "cap on any per-query deadline budget (0 = uncapped)")
		drainBudget   = flag.Duration("drain-budget", 15*time.Second, "how long in-flight requests may finish after SIGTERM before hard cancel")
		dataDir       = flag.String("data-dir", "", "durable graph store directory (empty = in-memory only)")
		snapEvery     = flag.Int("snapshot-every", 0, "fold a graph's WAL into a snapshot after this many edit batches (0 = default 64, negative disables)")
		snapBytes     = flag.Int64("snapshot-bytes", 0, "fold a graph's WAL into a snapshot after this many bytes (0 = default 4MiB, negative disables)")
		clusterAddr   = flag.String("cluster-addr", "", "cluster RPC listen address; empty disables cluster mode")
		nodeID        = flag.String("node-id", "", "stable cluster node name (its hash is the ring position; default = advertised address)")
		advertise     = flag.String("advertise", "", "cluster address announced to peers (default = the bound -cluster-addr)")
		peers         = flag.String("peers", "", "comma-separated seed peer cluster addresses to join")
		replicas      = flag.Int("replicas", 0, "replicas per placed shard (0 = default 2)")
		alpha         = flag.Int("alpha", 0, "scatter/placement fan-out concurrency (0 = default 3)")
		preload       graphFlags
	)
	flag.Var(&preload, "graph", "preload a graph as name=path (repeatable)")
	flag.Parse()
	copts := clusterOpts{
		Bind:      *clusterAddr,
		NodeID:    *nodeID,
		Advertise: *advertise,
		Peers:     *peers,
		Replicas:  *replicas,
		Alpha:     *alpha,
	}
	if err := run(*addr, service.Config{
		MaxGraphs:       *maxGraphs,
		MaxSessions:     *maxSessions,
		ResultCacheSize: *resultCache,
		MaxConcurrency:  *maxConc,
		DefaultBudget:   *defaultBudget,
		MaxBudget:       *maxBudget,
	}, store.Config{
		Dir:           *dataDir,
		SnapshotEvery: *snapEvery,
		SnapshotBytes: *snapBytes,
	}, *drainBudget, preload, copts); err != nil {
		fmt.Fprintln(os.Stderr, "njoind:", err)
		os.Exit(1)
	}
}

// clusterOpts carries the cluster-mode flags; a zero Bind disables them all.
type clusterOpts struct {
	Bind      string
	NodeID    string
	Advertise string
	Peers     string
	Replicas  int
	Alpha     int
}

func run(addr string, cfg service.Config, storeCfg store.Config, drainBudget time.Duration, preload []string, copts clusterOpts) error {
	if storeCfg.Dir != "" {
		st, recovered, err := store.Open(storeCfg)
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", storeCfg.Dir, err)
		}
		defer st.Close()
		cfg.Store = st
		ctr := st.Counters()
		fmt.Fprintf(os.Stderr,
			"njoind: data dir %s: recovered %d graph(s) (wal records replayed %d, torn tails truncated %d, wals discarded %d, snapshot fallbacks %d, orphans swept %d)\n",
			storeCfg.Dir, ctr.GraphsRecovered, ctr.WALReplayed, ctr.WALTruncations, ctr.WALDiscards, ctr.SnapshotFallbacks, ctr.Orphans)
		svc := service.New(cfg)
		if err := svc.AdoptRecovered(recovered); err != nil {
			return err
		}
		for _, rec := range recovered {
			degraded := ""
			if rec.TornTail {
				degraded += ", torn wal tail truncated"
			}
			if rec.Fallback {
				degraded += ", fell back to an older snapshot"
			}
			fmt.Fprintf(os.Stderr, "njoind: recovered graph %q at generation %d (%d wal record(s) replayed%s)\n",
				rec.Name, rec.Gen, rec.Replayed, degraded)
		}
		return runService(addr, svc, drainBudget, preload, copts)
	}
	return runService(addr, service.New(cfg), drainBudget, preload, copts)
}

func runService(addr string, svc *service.Service, drainBudget time.Duration, preload []string, copts clusterOpts) error {
	for _, spec := range preload {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-graph wants name=path, got %q", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = svc.LoadGraphText(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %q: %w", spec, err)
		}
		fmt.Fprintf(os.Stderr, "njoind: loaded graph %q from %s\n", name, path)
	}
	fmt.Fprintf(os.Stderr, "njoind: measures registered: %s\n", strings.Join(measure.Names(), ", "))
	handler := http.Handler(service.NewHandler(svc))
	if copts.Bind != "" {
		node, err := cluster.Start(cluster.Config{
			Name:      copts.NodeID,
			Bind:      copts.Bind,
			Advertise: copts.Advertise,
			Replicas:  copts.Replicas,
			Alpha:     copts.Alpha,
			Service:   svc,
		})
		if err != nil {
			return fmt.Errorf("starting cluster node: %w", err)
		}
		defer node.Close()
		svc.SetRouter(node)
		handler = cluster.WrapHandler(node, handler)
		fmt.Fprintf(os.Stderr, "njoind: cluster node %q serving RPC on %s (advertising %s)\n",
			node.Self().Name, node.Addr(), node.Self().Addr)
		if copts.Peers != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := node.Join(ctx, strings.Split(copts.Peers, ","))
			cancel()
			if err != nil {
				// Seeds may simply not be up yet; inbound pings from them
				// will converge membership later.
				fmt.Fprintf(os.Stderr, "njoind: cluster join incomplete: %v\n", err)
			}
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	return serve(ln, svc, handler, drainBudget, stop)
}

// serve runs the HTTP API on ln until a signal arrives on stop, then drains:
// admission closes (new queries get 503 + Retry-After and /readyz flips),
// in-flight requests — open NDJSON streams included — get drainBudget to
// finish, and whatever is still running afterwards (or when a second signal
// arrives) is hard-cancelled through the server's base context, which every
// joiner polls at walk-round granularity.
func serve(ln net.Listener, svc *service.Service, handler http.Handler, drainBudget time.Duration, stop chan os.Signal) error {
	baseCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20, // joins carry their payload in the body; headers stay small
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "njoind: serving on %s\n", ln.Addr())
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		// Graceful drain: stop admitting (new queries get 503 + Retry-After,
		// /readyz flips so load balancers stop routing here), let in-flight
		// requests — including open NDJSON streams — finish within the drain
		// budget, then hard-cancel whatever is left. A second signal skips
		// straight to the hard stop.
		fmt.Fprintf(os.Stderr, "njoind: %v, draining (budget %s; signal again to stop now)\n", sig, drainBudget)
		svc.StartDrain()
		// Keep accepting for a moment before closing the listener: load
		// balancers need to observe the /readyz flip, and clients racing the
		// drain get an explicit 503 + Retry-After instead of a connection
		// refused.
		grace := drainBudget / 4
		if grace > time.Second {
			grace = time.Second
		}
		select {
		case <-time.After(grace):
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "njoind: %v again, cancelling in-flight requests\n", sig)
			hardCancel()
			srv.Close()
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), drainBudget-grace)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(ctx) }()
		select {
		case err := <-done:
			if err == nil {
				fmt.Fprintln(os.Stderr, "njoind: drained cleanly")
				return nil
			}
			fmt.Fprintf(os.Stderr, "njoind: drain budget spent (%v), cancelling in-flight requests\n", err)
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "njoind: %v again, cancelling in-flight requests\n", sig)
		}
		hardCancel()
		srv.Close()
		<-done
		return nil
	}
}
