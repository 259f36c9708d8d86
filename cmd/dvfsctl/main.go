// Command dvfsctl is the operator CLI for the dvfsd strategy service.
//
// Usage:
//
//	dvfsctl [-addr http://127.0.0.1:7077] [-ring ring.json] <command> [flags]
//
// Commands:
//
//	submit   submit a workload (registry name or trace file) and
//	         optionally wait for the strategy
//	status   print one job's status
//	fetch    print (or save) a completed job's strategy JSON
//	owner    print which ring node owns a request's strategy key
//	cluster  print the daemon's /v1/cluster status
//	metrics  dump the daemon's /metrics text
//
// With -ring, submissions are routed directly to the node that owns
// the request's strategy key (falling back to -addr if the owner is
// unreachable); without it every request goes to -addr and the daemon
// forwards as needed. Transient failures (connection errors, 5xx other
// than 503 load shedding) are retried with jittered backoff.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"npudvfs/internal/cluster/ring"
	"npudvfs/internal/server/client"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// errUsage is a command line naming no known command; main exits 2.
var errUsage = errors.New("usage: dvfsctl [-addr URL] [-ring FILE] {submit|status|fetch|owner|cluster|metrics} [flags]")

// ctl bundles the base client with the optional ring-aware peer set
// and the streams the commands write to.
type ctl struct {
	base           *client.Client
	rg             *ring.Ring
	peers          map[string]*client.Client
	stdout, stderr io.Writer
}

// newClient returns a retrying client for one daemon address.
func newClient(addr string) *client.Client {
	c := client.New(addr)
	c.Retry = &client.Retry{Attempts: 3}
	return c
}

// forRequest picks the client for one submission: the key owner's node
// when a ring is loaded, else the base daemon.
func (c *ctl) forRequest(req *traceio.StrategyRequest) *client.Client {
	if c.rg == nil {
		return c.base
	}
	key, err := req.Key()
	if err != nil {
		return c.base // let the daemon attribute the 4xx
	}
	if pc, ok := c.peers[c.rg.Owner(key).ID]; ok {
		return pc
	}
	return c.base
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsctl:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses the global flags, which precede the command, and runs the
// command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dvfsctl", flag.ExitOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "daemon URL (default http://127.0.0.1:7077, or the first ring member with -ring)")
	ringPath := fs.String("ring", "", "ring file: submit straight to each key's owner")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rg *ring.Ring
	if *ringPath != "" {
		var err error
		if rg, err = ring.Load(*ringPath); err != nil {
			return err
		}
	}
	if *addr == "" {
		if rg != nil {
			// No explicit daemon: default to the first ring member.
			*addr = rg.Nodes()[0].Addr
		} else {
			*addr = "http://127.0.0.1:7077"
		}
	}
	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr
	}
	if fs.NArg() == 0 {
		return errUsage
	}
	c := &ctl{base: newClient(*addr), rg: rg, stdout: stdout, stderr: stderr}
	if rg != nil {
		c.peers = make(map[string]*client.Client)
		for _, n := range rg.Nodes() {
			c.peers[n.ID] = newClient(n.Addr)
		}
	}
	ctx := context.Background()
	args = fs.Args()[1:]
	switch fs.Arg(0) {
	case "submit":
		return runSubmit(ctx, c, args)
	case "status":
		return runStatus(ctx, c, args)
	case "fetch":
		return runFetch(ctx, c, args)
	case "owner":
		return runOwner(c, args)
	case "cluster":
		return runCluster(ctx, c)
	case "metrics":
		return runMetrics(ctx, c)
	default:
		return errUsage
	}
}

func (c *ctl) newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("dvfsctl "+name, flag.ExitOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// searchFlags registers the SearchSpec knobs on a flag set and returns
// a builder.
func searchFlags(fs *flag.FlagSet) func() traceio.SearchSpec {
	target := fs.Float64("target", 0, "performance loss target (0 = server default 0.02)")
	fai := fs.Float64("fai", 0, "frequency adjustment interval in ms (0 = server default 5)")
	pop := fs.Int("pop", 0, "GA population (0 = server default 200)")
	gens := fs.Int("gens", 0, "GA generations (0 = server default 600)")
	seed := fs.Int64("seed", 0, "GA seed (0 = server default 1)")
	timeoutMs := fs.Int("timeout-ms", 0, "per-job search deadline in ms (0 = server default)")
	return func() traceio.SearchSpec {
		return traceio.SearchSpec{
			TargetLoss: *target, FAIMillis: units.Millis(*fai),
			Pop: *pop, Gens: *gens, Seed: *seed, TimeoutMillis: *timeoutMs,
		}
	}
}

// buildRequest assembles the submission body from -workload/-trace.
func buildRequest(workloadName, tracePath string, spec traceio.SearchSpec) (*traceio.StrategyRequest, error) {
	req := &traceio.StrategyRequest{Search: spec}
	switch {
	case workloadName != "" && tracePath != "":
		return nil, fmt.Errorf("-workload and -trace are mutually exclusive")
	case workloadName != "":
		req.Workload = workloadName
	case tracePath != "":
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		req.Trace = json.RawMessage(raw)
	default:
		return nil, fmt.Errorf("one of -workload (%s) or -trace FILE is required",
			strings.Join(workload.Names(), ", "))
	}
	return req, nil
}

func runSubmit(ctx context.Context, c *ctl, args []string) error {
	fs := c.newFlagSet("submit")
	workloadName := fs.String("workload", "", "registry workload name")
	tracePath := fs.String("trace", "", "workload trace JSON file (traceio format)")
	wait := fs.Bool("wait", true, "poll until the job finishes")
	save := fs.String("save", "", "write the strategy JSON to this path (implies -wait)")
	spec := searchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := buildRequest(*workloadName, *tracePath, spec())
	if err != nil {
		return err
	}
	cl := c.forRequest(req)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return err
	}
	if st.Cached {
		fmt.Fprintf(c.stdout, "job %s: served from cache\n", st.ID)
	} else {
		fmt.Fprintf(c.stdout, "job %s: %s\n", st.ID, st.State)
	}
	if !*wait && *save == "" {
		return nil
	}
	if st, err = cl.Wait(ctx, st.ID, 0); err != nil {
		return err
	}
	return reportJob(c.stdout, st, *save)
}

// reportJob prints the human summary of a finished job and saves the
// strategy when asked.
func reportJob(w io.Writer, st *traceio.JobStatus, save string) error {
	if st.State != traceio.JobDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	r := st.Result
	fmt.Fprintf(w, "workload %s: %d stages, %d SetFreq per iteration, %d evaluations\n",
		r.Workload, r.Stages, r.Switches, r.Evaluations)
	fmt.Fprintf(w, "predicted: time %+.2f%%  SoC power -%.2f%%  AICore power -%.2f%%\n",
		r.Predicted.PerfLossPct, r.Predicted.SoCSavingPct, r.Predicted.CoreSavingPct)
	fmt.Fprintf(w, "latency: queue %.0f ms, search %.0f ms\n", st.QueueMillis, st.SearchMillis)
	if save != "" {
		if err := saveStrategy(save, r.Strategy); err != nil {
			return err
		}
		fmt.Fprintf(w, "strategy written to %s\n", save)
	}
	return nil
}

// saveStrategy re-encodes the wire strategy through traceio so the
// file is byte-identical to what dvfs-run -save-strategy writes for
// the same search — the determinism contract, checkable with diff.
func saveStrategy(path string, raw json.RawMessage) error {
	strat, err := traceio.ReadStrategy(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("served strategy does not parse: %w", err)
	}
	return traceio.SaveStrategy(path, strat)
}

func runStatus(ctx context.Context, c *ctl, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dvfsctl status JOB_ID")
	}
	st, err := c.base.Job(ctx, args[0])
	if err != nil {
		return err
	}
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

func runFetch(ctx context.Context, c *ctl, args []string) error {
	fs := c.newFlagSet("fetch")
	save := fs.String("save", "", "write the strategy JSON to this path instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dvfsctl fetch [-save FILE] JOB_ID")
	}
	st, err := c.base.Job(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	if st.State != traceio.JobDone || st.Result == nil {
		return fmt.Errorf("job %s is %s, not done", st.ID, st.State)
	}
	if *save != "" {
		return saveStrategy(*save, st.Result.Strategy)
	}
	fmt.Fprintln(c.stdout, string(st.Result.Strategy))
	return nil
}

// runOwner prints which ring node owns a request's strategy key —
// what the smoke tests use to pick a deliberate non-owner to submit
// through.
func runOwner(c *ctl, args []string) error {
	if c.rg == nil {
		return fmt.Errorf("owner requires -ring FILE")
	}
	fs := c.newFlagSet("owner")
	workloadName := fs.String("workload", "", "registry workload name")
	tracePath := fs.String("trace", "", "workload trace JSON file")
	spec := searchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := buildRequest(*workloadName, *tracePath, spec())
	if err != nil {
		return err
	}
	key, err := req.Key()
	if err != nil {
		return err
	}
	n := c.rg.Owner(key)
	fmt.Fprintf(c.stdout, "key %s\nowner: %s %s\n", key, n.ID, n.Addr)
	return nil
}

func runCluster(ctx context.Context, c *ctl) error {
	st, err := c.base.Cluster(ctx)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

func runMetrics(ctx context.Context, c *ctl) error {
	text, err := c.base.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Fprint(c.stdout, text)
	return nil
}
