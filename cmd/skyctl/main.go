// Command skyctl is the command-line client for skyserved, built on the
// serve/client package.
//
//	skyctl -addr http://localhost:8080 ls
//	skyctl query hotels -prefs min,min -k 2 -top 5
//	skyctl insert ticks -p 0.1,0.9,0.3 -p 0.5,0.2,0.8
//	skyctl del ticks 7
//	skyctl subscribe ticks -n 10
//	skyctl attach prices -dir /var/lib/skybench/prices -d 4
//	skyctl drop prices
//	skyctl metrics
//	skyctl cluster ls
//	skyctl cluster status hotels
//	skyctl cluster attach hotels -file hotels.csv -workers http://w1:8081,http://w2:8082
//
// Every non-2xx response prints the server's error code and message and
// exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"skybench/serve"
	"skybench/serve/client"
	"skybench/serve/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skyctl: ")

	addr := flag.String("addr", envOr("SKYSERVED_ADDR", "http://localhost:8080"), "skyserved base URL (or $SKYSERVED_ADDR)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	c := client.New(*addr)
	cmd, args := flag.Arg(0), flag.Args()[1:]

	var err error
	switch cmd {
	case "ls":
		err = cmdList(c)
	case "info":
		err = cmdInfo(c, args)
	case "query":
		err = cmdQuery(c, args)
	case "insert":
		err = cmdInsert(c, args)
	case "del":
		err = cmdDelete(c, args)
	case "subscribe":
		err = cmdSubscribe(c, args)
	case "attach":
		err = cmdAttach(c, args)
	case "drop":
		err = cmdDrop(c, args)
	case "metrics":
		err = cmdMetrics(c, args)
	case "cluster":
		err = cmdCluster(c, args)
	default:
		log.Printf("unknown command %q", cmd)
		usage()
		os.Exit(2)
	}
	// Shed idle keep-alive connections before exiting (before the Fatal
	// below, which skips defers): a stranded conn would otherwise hold
	// up a draining server's graceful shutdown.
	c.Close()
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: skyctl [-addr URL] <command> [flags]

commands:
  ls                         list collections
  info <collection>          describe one collection
  query <collection>         run a skyline / k-skyband / top-k query
  insert <collection>        insert points (-p x,y,... repeatable, or -csv file)
  del <collection> <id>      delete one point by stream ID
  subscribe <collection>     stream skyline delta events
  attach <collection>        attach a collection (-file csv | -dir waldir)
  drop <collection>          drop a collection
  metrics                    dump the Prometheus metrics text (-lint to validate it)
  cluster ls                 list cluster-backed collections on the coordinator
  cluster status <name>      show a cluster collection's placement and worker health
  cluster attach <name>      attach a cluster collection (-file csv -workers url,url)
`)
	flag.PrintDefaults()
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// collectionArg peels the leading collection name off a subcommand's
// arguments.
func collectionArg(cmd string, args []string) (string, []string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", nil, fmt.Errorf("usage: skyctl %s <collection> [flags]", cmd)
	}
	return args[0], args[1:], nil
}

func cmdList(c *client.Client) error {
	infos, err := c.List(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %10s %4s %8s %7s\n", "NAME", "N", "D", "EPOCH", "KIND")
	for _, in := range infos {
		kind := "static"
		switch {
		case in.Cluster != nil:
			kind = "cluster"
		case in.StreamBacked:
			kind = "stream"
			if in.Durable {
				kind = "durable"
			}
		}
		fmt.Printf("%-20s %10d %4d %8d %7s\n", in.Name, in.N, in.D, in.Epoch, kind)
	}
	return nil
}

func cmdInfo(c *client.Client, args []string) error {
	name, _, err := collectionArg("info", args)
	if err != nil {
		return err
	}
	info, err := c.Info(context.Background(), name)
	if err != nil {
		return err
	}
	return printJSON(info)
}

func cmdQuery(c *client.Client, args []string) error {
	name, rest, err := collectionArg("query", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	algo := fs.String("algo", "", "algorithm (hybrid, qflow, ...)")
	prefs := fs.String("prefs", "", "comma-separated per-dimension preferences (min,max,ignore)")
	k := fs.Int("k", 0, "k-skyband parameter (0 = plain skyline)")
	top := fs.Int("top", 0, "return only the top-N least-dominated points")
	stale := fs.Bool("stale", false, "allow a stale cached answer under overload")
	noValues := fs.Bool("no-values", false, "omit point coordinates from the response")
	trace := fs.Bool("trace", false, "request an execution trace and pretty-print it to stderr")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = server default)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	req := &serve.QueryRequest{
		Algorithm:  *algo,
		SkybandK:   *k,
		Top:        *top,
		AllowStale: *stale,
		OmitValues: *noValues,
		Trace:      *trace,
	}
	if *prefs != "" {
		req.Prefs = strings.Split(*prefs, ",")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := c.Query(ctx, name, req)
	if err != nil {
		return err
	}
	if *trace && res.Trace != nil {
		// The trace goes to stderr so the JSON result on stdout stays
		// machine-consumable.
		fmt.Fprintln(os.Stderr, res.Trace.String())
	}
	return printJSON(res)
}

func cmdInsert(c *client.Client, args []string) error {
	name, rest, err := collectionArg("insert", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	var pointFlags multiFlag
	fs.Var(&pointFlags, "p", "one point as comma-separated values (repeatable)")
	csvPath := fs.String("csv", "", "read points from a headerless CSV file")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	var points [][]float64
	for _, p := range pointFlags {
		vals, err := parsePoint(p)
		if err != nil {
			return err
		}
		points = append(points, vals)
	}
	if *csvPath != "" {
		data, err := os.ReadFile(*csvPath)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			vals, err := parsePoint(line)
			if err != nil {
				return err
			}
			points = append(points, vals)
		}
	}
	if len(points) == 0 {
		return fmt.Errorf("no points given (use -p or -csv)")
	}
	ids, err := c.Insert(context.Background(), name, points)
	if err != nil {
		return err
	}
	return printJSON(serve.InsertResponse{IDs: ids})
}

func parsePoint(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	vals := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("point %q: %v", s, err)
		}
		vals[i] = v
	}
	return vals, nil
}

func cmdDelete(c *client.Client, args []string) error {
	name, rest, err := collectionArg("del", args)
	if err != nil {
		return err
	}
	if len(rest) != 1 {
		return fmt.Errorf("usage: skyctl del <collection> <id>")
	}
	id, err := strconv.ParseUint(rest[0], 10, 64)
	if err != nil {
		return fmt.Errorf("id %q: %v", rest[0], err)
	}
	if err := c.Delete(context.Background(), name, id); err != nil {
		return err
	}
	fmt.Printf("deleted %d\n", id)
	return nil
}

func cmdSubscribe(c *client.Client, args []string) error {
	name, rest, err := collectionArg("subscribe", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	n := fs.Int("n", 0, "exit after this many events (0 = run until interrupted)")
	wait := fs.Duration("wait", 0, "overall subscription timeout (0 = run until interrupted)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	ctx := context.Background()
	if *wait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *wait)
		defer cancel()
	}
	sub, err := c.Subscribe(ctx, name)
	if err != nil {
		return err
	}
	defer sub.Close()
	enc := json.NewEncoder(os.Stdout)
	for count := 0; *n == 0 || count < *n; count++ {
		ev, err := sub.Next()
		if err != nil {
			return fmt.Errorf("subscription ended: %v", err)
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

func cmdAttach(c *client.Client, args []string) error {
	name, rest, err := collectionArg("attach", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	file := fs.String("file", "", "server-side CSV file for a static collection")
	dir := fs.String("dir", "", "server-side WAL directory for a durable stream collection")
	create := fs.Bool("create", true, "create fresh durable state when dir holds none")
	d := fs.Int("d", 0, "dimensionality (required when creating)")
	k := fs.Int("k", 0, "k-skyband parameter maintained by the stream index")
	prefs := fs.String("prefs", "", "comma-separated preferences for the stream index")
	fsync := fs.String("fsync", "", "durable fsync policy: os, always, interval")
	cache := fs.Int("cache", 0, "result-cache capacity")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	req := &serve.AttachRequest{CacheCapacity: *cache}
	switch {
	case *file != "" && *dir == "":
		req.Static = &serve.StaticSpec{Path: *file}
	case *dir != "" && *file == "":
		req.Stream = &serve.StreamSpec{Dir: *dir, Create: *create, D: *d, SkybandK: *k, Fsync: *fsync}
		if *prefs != "" {
			req.Stream.Prefs = strings.Split(*prefs, ",")
		}
	default:
		return fmt.Errorf("exactly one of -file or -dir is required")
	}
	info, err := c.Attach(context.Background(), name, req)
	if err != nil {
		return err
	}
	return printJSON(info)
}

func cmdDrop(c *client.Client, args []string) error {
	name, _, err := collectionArg("drop", args)
	if err != nil {
		return err
	}
	if err := c.Drop(context.Background(), name); err != nil {
		return err
	}
	fmt.Printf("dropped %s\n", name)
	return nil
}

func cmdMetrics(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	lint := fs.Bool("lint", false, "validate the exposition (types, help, histogram consistency) instead of printing it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		return err
	}
	if *lint {
		if err := metrics.Lint(strings.NewReader(text)); err != nil {
			return fmt.Errorf("metrics lint: %v", err)
		}
		fmt.Println("metrics ok")
		return nil
	}
	fmt.Print(text)
	return nil
}

// cmdCluster dispatches the cluster subcommands: ls, status, attach.
func cmdCluster(c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: skyctl cluster <ls|status|attach> [args]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "ls":
		return cmdClusterList(c)
	case "status":
		return cmdClusterStatus(c, rest)
	case "attach":
		return cmdClusterAttach(c, rest)
	}
	return fmt.Errorf("unknown cluster subcommand %q (want ls, status, or attach)", sub)
}

func cmdClusterList(c *client.Client) error {
	infos, err := c.List(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %10s %4s %8s %8s %8s %8s\n", "NAME", "N", "D", "WORKERS", "POLICY", "HEALTHY", "PARTIALS")
	for _, in := range infos {
		cl := in.Cluster
		if cl == nil {
			continue
		}
		healthy := 0
		for _, w := range cl.Workers {
			if w.Healthy {
				healthy++
			}
		}
		fmt.Printf("%-20s %10d %4d %8d %8s %5d/%-2d %8d\n",
			in.Name, in.N, in.D, len(cl.Workers), cl.Policy, healthy, len(cl.Workers), cl.Partials)
	}
	return nil
}

func cmdClusterStatus(c *client.Client, args []string) error {
	name, _, err := collectionArg("cluster status", args)
	if err != nil {
		return err
	}
	info, err := c.Info(context.Background(), name)
	if err != nil {
		return err
	}
	cl := info.Cluster
	if cl == nil {
		return fmt.Errorf("collection %q is not cluster-backed", name)
	}
	fmt.Printf("collection %s: n=%d d=%d epoch=%d policy=%s partials=%d\n",
		info.Name, info.N, info.D, info.Epoch, cl.Policy, cl.Partials)
	fmt.Printf("%-4s %-32s %12s %8s %9s %9s %8s\n", "ID", "ADDR", "ROWS", "UP", "QUERIES", "FAILURES", "RETRIES")
	for i, w := range cl.Workers {
		up := "up"
		if !w.Healthy {
			up = "DOWN"
		}
		fmt.Printf("%-4d %-32s [%d,%d) %8s %9d %9d %8d\n",
			i, w.Addr, w.Lo, w.Hi, up, w.Queries, w.Failures, w.Retries)
	}
	return nil
}

func cmdClusterAttach(c *client.Client, args []string) error {
	name, rest, err := collectionArg("cluster attach", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("cluster attach", flag.ExitOnError)
	file := fs.String("file", "", "coordinator-side CSV file to shard across the workers")
	workers := fs.String("workers", "", "comma-separated worker base URLs, in placement order")
	policy := fs.String("policy", "", "degraded-answer policy: failfast (default) or partial")
	margin := fs.Duration("margin", 0, "deadline margin reserved for the merge and return trip")
	retries := fs.Int("retries", 0, "transport retries per worker call (0 = default)")
	cache := fs.Int("cache", 0, "coordinator result-cache capacity")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *file == "" || *workers == "" {
		return fmt.Errorf("cluster attach needs -file and -workers")
	}
	req := &serve.AttachRequest{
		CacheCapacity: *cache,
		Cluster: &serve.ClusterSpec{
			Path:     *file,
			Workers:  strings.Split(*workers, ","),
			Policy:   *policy,
			MarginMs: margin.Milliseconds(),
			Retries:  *retries,
		},
	}
	info, err := c.Attach(context.Background(), name, req)
	if err != nil {
		return err
	}
	return printJSON(info)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ";") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
