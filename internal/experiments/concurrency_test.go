package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/op"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// skipHeavyUnderRace skips end-to-end numerical cases when the binary
// is race-instrumented: they are minutes-long under the detector and
// their assertions are exercised by the regular suite. Concurrency
// tests (everything in this file) run under -race unconditionally —
// that is their point.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("heavy end-to-end case; covered by the non-race suite")
	}
}

// sharedExecProblem scores GA individuals by running them on ONE
// Executor shared across all GA island goroutines — the shape of a
// hardware-in-the-loop search, and the scenario the Executor's
// concurrency contract exists for. Alleles are core frequencies, as a
// strategy's points are.
type sharedExecProblem struct {
	lab   *Lab
	ex    *executor.Executor
	trace []op.Spec
	grid  []float64
}

func (p *sharedExecProblem) Genes() int     { return 4 }
func (p *sharedExecProblem) Alleles() int   { return len(p.grid) }
func (p *sharedExecProblem) Seeds() [][]int { return nil }

func (p *sharedExecProblem) Score(ind []int) float64 {
	step := len(p.trace) / len(ind)
	strat := &core.Strategy{BaselineMHz: units.MHz(p.grid[len(p.grid)-1])}
	for i, g := range ind {
		strat.Points = append(strat.Points, core.FreqPoint{OpIndex: i * step, FreqMHz: units.MHz(p.grid[g])})
	}
	th := thermal.NewState(p.lab.Thermal)
	res, err := p.ex.Run(p.trace, strat, th, executor.DefaultOptions())
	if err != nil {
		return math.NaN() // treated as worst fitness by the GA
	}
	return 1 / res.EnergyCoreJ
}

// TestGASharedExecutorStress drives GA scoring through one shared
// Executor from two concurrently running islands (the engine scores a
// plain Problem serially per island, so islands are what make Score
// calls overlap). Its real assertion is the race detector: `go test
// -race` fails here if any shared state on the Score path races. It
// also pins determinism: a Workers=1 run must find the identical
// result.
func TestGASharedExecutorStress(t *testing.T) {
	lab := sharedLab().Lab
	reps := workload.RepresentativeOps()
	var trace []op.Spec
	for len(trace) < 24 {
		trace = append(trace, reps...)
	}
	newProblem := func() *sharedExecProblem {
		return &sharedExecProblem{
			lab:   lab,
			ex:    executor.New(lab.Chip, lab.Ground),
			trace: trace,
			grid:  units.Floats(lab.Chip.Curve.Grid()),
		}
	}
	cfg := ga.Config{
		PopSize: 16, Generations: 6, MutationRate: 0.2,
		CrossoverRate: 0.7, Elitism: 1, Seed: 77, Workers: 8, Islands: 2,
	}
	par, err := ga.RunContext(context.Background(), newProblem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	ser, err := ga.RunContext(context.Background(), newProblem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.BestScore != ser.BestScore {
		t.Errorf("parallel best %g != serial best %g", par.BestScore, ser.BestScore)
	}
	if len(par.Best) != len(ser.Best) {
		t.Fatalf("gene count mismatch: %d vs %d", len(par.Best), len(ser.Best))
	}
	for i := range par.Best {
		if par.Best[i] != ser.Best[i] {
			t.Errorf("gene %d: parallel %d != serial %d", i, par.Best[i], ser.Best[i])
		}
	}
}

// deterministicSuite lists cheap experiments whose rendered reports
// carry no wall-clock timing, so serial and parallel runs must be
// byte-identical.
var deterministicSuite = []string{"fig3", "fig4", "fig9", "sensitivity"}

func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	serialLab := &Harness{Lab: NewLab(), Parallel: 1}
	parallelLab := &Harness{Lab: NewLab(), Parallel: 4}
	serial, err := serialLab.RunSuite(context.Background(), deterministicSuite, 0)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelLab.RunSuite(context.Background(), deterministicSuite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(deterministicSuite) || len(parallel) != len(serial) {
		t.Fatalf("outcome counts: serial %d, parallel %d, want %d",
			len(serial), len(parallel), len(deterministicSuite))
	}
	for i := range serial {
		if serial[i].Name != deterministicSuite[i] || parallel[i].Name != deterministicSuite[i] {
			t.Fatalf("outcome %d: order broken (serial %q, parallel %q, want %q)",
				i, serial[i].Name, parallel[i].Name, deterministicSuite[i])
		}
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("%s: unexpected error (serial %v, parallel %v)",
				serial[i].Name, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Report == "" {
			t.Fatalf("%s: empty report", serial[i].Name)
		}
		if serial[i].Report != parallel[i].Report {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].Name, serial[i].Report, parallel[i].Report)
		}
	}
}

func TestRunSuiteUnknownName(t *testing.T) {
	l := sharedLab()
	_, err := l.RunSuite(context.Background(), []string{"fig3", "nonsense"}, 0)
	if err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Fatalf("want error naming the unknown experiment, got %v", err)
	}
}

func TestSelectPreservesCanonicalOrder(t *testing.T) {
	specs, err := Select([]string{"fig9", "fig3"}) // reversed on purpose
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "fig3" || specs[1].Name != "fig9" {
		t.Fatalf("want canonical order [fig3 fig9], got %v", specNames(specs))
	}
	all, err := Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Registry()) {
		t.Fatalf("nil selection: want full registry (%d), got %d", len(Registry()), len(all))
	}
}

func specNames(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

type fakeResult string

func (f fakeResult) String() string { return string(f) }

func TestRunOneTimeout(t *testing.T) {
	l := sharedLab()

	// An experiment that observes ctx (like every GA-backed one does at
	// generation boundaries) is reported as cancelled: the error wraps
	// context.DeadlineExceeded and says so.
	aware := Spec{Name: "aware", Run: func(ctx context.Context, _ *Harness) (fmt.Stringer, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("search cancelled mid-flight: %w", ctx.Err())
	}}
	o := runOne(context.Background(), l, aware, 30*time.Millisecond)
	if o.Err == nil || !strings.Contains(o.Err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", o.Err)
	}
	if !errors.Is(o.Err, context.DeadlineExceeded) {
		t.Errorf("cancellation-aware timeout should wrap context.DeadlineExceeded, got %v", o.Err)
	}
	if !strings.Contains(o.Err.Error(), "cancelled") {
		t.Errorf("cancellation-aware timeout should say cancelled, got %v", o.Err)
	}
	if o.Report != "" || o.Result != nil {
		t.Errorf("timed-out outcome should carry no result, got %+v", o)
	}

	// An experiment that ignores ctx past the grace window is abandoned:
	// plain error, NOT errors.Is(context.DeadlineExceeded).
	release := make(chan struct{})
	deaf := Spec{Name: "deaf", Run: func(context.Context, *Harness) (fmt.Stringer, error) {
		<-release
		return fakeResult("too late"), nil
	}}
	o = runOne(context.Background(), l, deaf, 30*time.Millisecond)
	close(release) // let the abandoned goroutine exit
	if o.Err == nil || !strings.Contains(o.Err.Error(), "abandoned") {
		t.Fatalf("want abandoned error, got %v", o.Err)
	}
	if errors.Is(o.Err, context.DeadlineExceeded) {
		t.Errorf("abandonment must be distinguishable from clean cancellation, got %v", o.Err)
	}
	if o.Report != "" || o.Result != nil {
		t.Errorf("abandoned outcome should carry no result, got %+v", o)
	}

	// A result that beats the deadline inside the grace window is
	// reported, not discarded.
	lagged := Spec{Name: "lagged", Run: func(ctx context.Context, _ *Harness) (fmt.Stringer, error) {
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond) // unwind takes a moment, but well inside cancelGrace
		return fakeResult("just made it"), nil
	}}
	o = runOne(context.Background(), l, lagged, 30*time.Millisecond)
	if o.Err != nil || o.Report != "just made it" {
		t.Fatalf("grace-window result should be reported: got report %q, err %v", o.Report, o.Err)
	}

	fast := Spec{Name: "fast", Run: func(context.Context, *Harness) (fmt.Stringer, error) {
		return fakeResult("done"), nil
	}}
	o = runOne(context.Background(), l, fast, time.Minute)
	if o.Err != nil || o.Report != "done" {
		t.Fatalf("fast spec under timeout: got report %q, err %v", o.Report, o.Err)
	}
}

// TestGARunContextCancels pins the GA's cancellation point: a search
// whose context expires mid-run returns an error wrapping the ctx
// error within a generation boundary.
func TestGARunContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the GA must notice before generation 0
	_, err := ga.RunContext(ctx, &slowProblem{}, ga.Config{
		PopSize: 8, Generations: 100, MutationRate: 0.2,
		CrossoverRate: 0.7, Elitism: 1, Seed: 1, Workers: 2,
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want error wrapping context.Canceled, got %v", err)
	}
}

// searchFree lists the registry entries that run no genetic search.
// They ignore ctx, and on a cold lab some take seconds (fig15, table2),
// so TestSearchesHonourCancellation does not run them. Every entry not
// listed here must honour cancellation, so a new search experiment is
// covered without editing the test.
var searchFree = map[string]bool{
	"fig3": true, "fig4": true, "fig9": true, "fig10": true, "fig15": true,
	"fig16": true, "table2": true, "fitcost": true, "inference": true,
	"sensitivity": true,
}

// TestSearchesHonourCancellation holds every search entry point to its
// ctx: under an already-cancelled context each one returns an error
// wrapping context.Canceled instead of searching to completion. Each
// search has exactly one entry point, and its first parameter is ctx,
// so there is no context-free twin to reach for.
func TestSearchesHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := sharedLab()
	for _, s := range Registry() {
		if searchFree[s.Name] {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			o := runOne(ctx, l, s, 0)
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("want error wrapping context.Canceled, got %v", o.Err)
			}
			if o.Result != nil || o.Report != "" {
				t.Errorf("cancelled outcome carries a result: %#v", o.Result)
			}
		})
	}

	gpt, err := l.gpt3Models()
	if err != nil {
		t.Fatal(err)
	}
	in := gpt.Input(l.Chip)
	cfg := core.DefaultConfig()
	for name, search := range map[string]func() error{
		"core.Search": func() error { _, _, err := core.Search(ctx, in, cfg); return err },
		"core.GenerateContext": func() error {
			_, _, _, err := core.GenerateContext(ctx, in, cfg)
			return err
		},
	} {
		if err := search(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want error wrapping context.Canceled, got %v", name, err)
		}
	}
}

type slowProblem struct{}

func (slowProblem) Genes() int     { return 4 }
func (slowProblem) Alleles() int   { return 4 }
func (slowProblem) Seeds() [][]int { return nil }
func (slowProblem) Score(ind []int) float64 {
	time.Sleep(100 * time.Microsecond)
	s := 0.0
	for _, g := range ind {
		s += float64(g)
	}
	return s
}
