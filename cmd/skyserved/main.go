// Command skyserved serves skybench collections over HTTP+JSON: the
// wire protocol of the serve package (queries, point mutations, delta
// subscriptions, admin, Prometheus metrics) over a Store configured
// from flags.
//
//	skyserved -addr :8080 \
//	  -static hotels=testdata/hotels.csv \
//	  -stream ticks=/var/lib/skybench/ticks,d=3 \
//	  -max-inflight 8 -max-queue 64 -default-timeout 2s \
//	  -log-events events.ndjson -slow-query 100ms -pprof
//
// A -stream directory holding durable state is recovered; one without
// is initialized fresh (d= is required then). -slow-query traces every
// query server-side and attaches the full trace to the event-log record
// of any query at least that slow; -pprof mounts the net/http/pprof
// profiling endpoints under /debug/pprof/. SIGINT/SIGTERM shuts down
// gracefully: stop accepting, drain in-flight queries under -drain,
// close delta subscribers, checkpoint and close durable collections,
// flush and close the event log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"skybench"
	"skybench/internal/cluster"
	"skybench/serve"
	"skybench/stream"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ";") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("skyserved: ")

	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		threads     = flag.Int("threads", 0, "engine thread budget (0 = all usable CPUs)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "max queries queued for an execution slot before 429")
		defTimeout  = flag.Duration("default-timeout", 0, "default per-query deadline (0 = none)")
		deltaQueue  = flag.Int("delta-queue", 0, "per-subscriber delta queue bound (0 = default)")
		eventsPath  = flag.String("log-events", "", "append one NDJSON event per request to this file")
		slowQuery   = flag.Duration("slow-query", 0, "trace every query and log the full trace for queries at least this slow (0 = off)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling endpoints; enable only on trusted networks)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		statics     multiFlag
		streams     multiFlag
		clusters    multiFlag
	)
	flag.Var(&statics, "static", "attach a static collection: name=file.csv[,cache=N] (repeatable)")
	flag.Var(&streams, "stream", "attach a durable stream collection: name=dir[,d=N,k=N,fsync=os|always|interval,checkpoint=N,cache=N] (repeatable; recovers existing state, creates fresh with d=)")
	flag.Var(&clusters, "cluster", "coordinator mode: shard a CSV across worker skyserveds and serve the merged collection: name=file.csv@http://w1|http://w2[,policy=failfast|partial,margin=5ms,retries=N,cache=N] (repeatable)")
	flag.Parse()

	st := skybench.NewStoreWithOptions(skybench.StoreOptions{
		Threads:        *threads,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *defTimeout,
	})

	opts := serve.Options{DeltaQueue: *deltaQueue, SlowQuery: *slowQuery}
	if *eventsPath != "" {
		f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening event log: %v", err)
		}
		// The event log takes ownership of the file: its Close during
		// graceful shutdown flushes the write buffer and closes it.
		opts.Events = serve.NewEventLog(f)
	}
	// Coordinator mode is also reachable over the wire (skyctl cluster
	// attach): the hook distributes the CSV and attaches the coordinator
	// exactly like the -cluster flag does at boot.
	var srv *serve.Server
	opts.AttachCluster = func(name string, spec *serve.ClusterSpec, colOpts skybench.CollectionOptions) error {
		return attachClusterSpec(srv, name, spec, colOpts)
	}
	srv = serve.New(st, opts)

	for _, spec := range statics {
		if err := attachStatic(srv, spec); err != nil {
			log.Fatalf("-static %s: %v", spec, err)
		}
	}
	for _, spec := range streams {
		if err := attachStream(srv, spec); err != nil {
			log.Fatalf("-stream %s: %v", spec, err)
		}
	}
	for _, spec := range clusters {
		if err := attachCluster(srv, spec); err != nil {
			log.Fatalf("-cluster %s: %v", spec, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("listening on %s (%d collections)", ln.Addr(), len(st.Names()))

	// The served handler: the API mux, optionally wrapped in an outer
	// mux that also mounts the pprof profiling endpoints.
	var handler http.Handler = srv
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", srv)
		handler = outer
		log.Printf("pprof enabled under /debug/pprof/")
	}

	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining (budget %v)", s, *drain)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}

	// Graceful shutdown, in dependency order: release the long-lived
	// delta handlers (Drain), let the HTTP server wait out in-flight
	// requests under the drain budget, then close the Store — which
	// checkpoints and closes every durable collection it owns.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	srv.Close()
	if err := opts.Events.Close(); err != nil {
		log.Printf("closing event log: %v", err)
	}
	log.Printf("shutdown complete")
}

// attachStatic parses and attaches one -static spec:
// name=file.csv[,cache=N].
func attachStatic(srv *serve.Server, spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return errors.New("want name=file.csv[,options]")
	}
	parts := strings.Split(rest, ",")
	path := parts[0]
	var opts skybench.CollectionOptions
	for _, kv := range parts[1:] {
		k, v, err := splitOpt(kv)
		if err != nil {
			return err
		}
		switch k {
		case "cache":
			opts.CacheCapacity, err = strconv.Atoi(v)
		default:
			return fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return fmt.Errorf("option %s: %v", k, err)
		}
	}
	_, err := srv.AttachStaticFile(name, path, opts)
	return err
}

// attachStream parses and attaches one -stream spec:
// name=dir[,d=N,k=N,fsync=...,checkpoint=N,cache=N].
// Existing durable state in dir is recovered; otherwise a fresh index
// is created (requiring d).
func attachStream(srv *serve.Server, spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return errors.New("want name=dir[,options]")
	}
	parts := strings.Split(rest, ",")
	dir := parts[0]
	var (
		d, k     int
		colOpts  skybench.CollectionOptions
		durOpts  stream.Durability
		haveFsnc bool
	)
	for _, kv := range parts[1:] {
		key, v, err := splitOpt(kv)
		if err != nil {
			return err
		}
		switch key {
		case "d":
			d, err = strconv.Atoi(v)
		case "k":
			k, err = strconv.Atoi(v)
		case "fsync":
			haveFsnc = true
			switch v {
			case "os":
				durOpts.Fsync = stream.FsyncOS
			case "always":
				durOpts.Fsync = stream.FsyncAlways
			case "interval":
				durOpts.Fsync = stream.FsyncInterval
			default:
				return fmt.Errorf("fsync %q (want os|always|interval)", v)
			}
		case "checkpoint":
			durOpts.CheckpointEvery, err = strconv.Atoi(v)
		case "cache":
			colOpts.CacheCapacity, err = strconv.Atoi(v)
		default:
			return fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return fmt.Errorf("option %s: %v", key, err)
		}
	}
	cfg := stream.Config{SkybandK: k}
	if haveFsnc || durOpts.CheckpointEvery != 0 {
		durOpts.Dir = dir
		cfg.Durable = &durOpts
	}
	// Create a fresh durable index when the directory has no state; the
	// d= option supplies the shape (recovery reads it from disk).
	_, err := srv.AttachDurable(name, dir, true, d, cfg, colOpts)
	return err
}

// attachCluster parses and attaches one -cluster spec:
// name=file.csv@http://w1|http://w2[,policy=...,margin=...,retries=N,cache=N].
// Workers are |-separated so the comma can keep separating options.
func attachCluster(srv *serve.Server, spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return errors.New("want name=file.csv@worker|worker[,options]")
	}
	parts := strings.Split(rest, ",")
	path, workerList, ok := strings.Cut(parts[0], "@")
	if !ok || path == "" || workerList == "" {
		return errors.New("want name=file.csv@worker|worker[,options]")
	}
	cs := &serve.ClusterSpec{Path: path, Workers: strings.Split(workerList, "|")}
	var opts skybench.CollectionOptions
	for _, kv := range parts[1:] {
		k, v, err := splitOpt(kv)
		if err != nil {
			return err
		}
		switch k {
		case "policy":
			cs.Policy = v
		case "margin":
			var dur time.Duration
			dur, err = time.ParseDuration(v)
			cs.MarginMs = dur.Milliseconds()
		case "retries":
			cs.Retries, err = strconv.Atoi(v)
		case "cache":
			opts.CacheCapacity, err = strconv.Atoi(v)
		default:
			return fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return fmt.Errorf("option %s: %v", k, err)
		}
	}
	return attachClusterSpec(srv, name, cs, opts)
}

// attachClusterSpec realizes a ClusterSpec (from the -cluster flag or a
// wire attach): distribute the CSV's contiguous shards across the
// workers, build a coordinator over the resulting placement, and attach
// it as a cluster-backed collection the coordinator owns.
func attachClusterSpec(srv *serve.Server, name string, spec *serve.ClusterSpec, opts skybench.CollectionOptions) error {
	if spec == nil || spec.Path == "" || len(spec.Workers) == 0 {
		return fmt.Errorf("%w: cluster spec needs a csv path and at least one worker", skybench.ErrBadQuery)
	}
	policy, err := cluster.ParsePolicy(spec.Policy)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	specs, n, d, err := cluster.Distribute(ctx, spec.Path, cluster.DistributeOptions{
		Collection: name,
		Workers:    spec.Workers,
		Replace:    true,
	})
	if err != nil {
		return fmt.Errorf("distributing %s: %w", spec.Path, err)
	}
	co, err := cluster.New(cluster.Config{
		Collection: name,
		D:          d,
		Workers:    specs,
		Policy:     policy,
		Margin:     time.Duration(spec.MarginMs) * time.Millisecond,
		Retries:    spec.Retries,
		Engine:     srv.Store().Engine(),
	})
	if err != nil {
		return err
	}
	opts.CloseOnDrop = true
	if _, err := srv.Store().AttachRemote(name, co, opts); err != nil {
		co.Close()
		return err
	}
	log.Printf("cluster %s: %d rows across %d workers (policy %s)", name, n, len(specs), policy)
	return nil
}

// splitOpt splits one k=v option token.
func splitOpt(kv string) (k, v string, err error) {
	k, v, ok := strings.Cut(kv, "=")
	if !ok || k == "" || v == "" {
		return "", "", fmt.Errorf("malformed option %q (want key=value)", kv)
	}
	return k, v, nil
}
