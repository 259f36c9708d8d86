package ga

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// sameResult asserts two results are byte-identical in every field the
// determinism contract covers (DESIGN.md §13): not just the winning
// individual but the whole observable outcome, including the
// deterministically aggregated evaluation and migration counters.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if fmt.Sprint(a.Best) != fmt.Sprint(b.Best) || a.BestScore != b.BestScore {
		t.Fatalf("%s: best diverged: %v (%v) vs %v (%v)", label, a.Best, a.BestScore, b.Best, b.BestScore)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(a.History), len(b.History))
	}
	for g := range a.History {
		if a.History[g] != b.History[g] {
			t.Fatalf("%s gen %d: history %v vs %v", label, g, a.History[g], b.History[g])
		}
	}
	if a.Evaluations != b.Evaluations || a.Generations != b.Generations {
		t.Fatalf("%s: evals/gens differ: %d/%d vs %d/%d", label, a.Evaluations, a.Generations, b.Evaluations, b.Generations)
	}
	if a.Islands != b.Islands || a.Migrations != b.Migrations {
		t.Fatalf("%s: islands/migrations differ: %d/%d vs %d/%d", label, a.Islands, a.Migrations, b.Islands, b.Migrations)
	}
	if fmt.Sprint(a.IslandEvaluations) != fmt.Sprint(b.IslandEvaluations) {
		t.Fatalf("%s: per-island evaluations differ: %v vs %v", label, a.IslandEvaluations, b.IslandEvaluations)
	}
}

// TestIslandWorkerCountInvariance is the central determinism claim of
// the island engine: at every island count, the full Result is
// byte-identical whether the islands run on one worker or eight. Both
// scoring paths are covered — the serial Score path (plain Problem)
// and the incremental partial-sum path.
func TestIslandWorkerCountInvariance(t *testing.T) {
	problems := map[string]Problem{
		"plain":       &matchProblem{target: target(16, 5), alleles: 5},
		"incremental": newIntSumProblem(24, 8),
	}
	for name, p := range problems {
		for _, islands := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.PopSize = 60
			cfg.Generations = 100
			cfg.Islands = islands
			cfg.Workers = 1
			ref, err := RunContext(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Islands != islands {
				t.Fatalf("%s islands=%d: Result.Islands = %d", name, islands, ref.Islands)
			}
			cfg.Workers = 8
			got, err := RunContext(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s islands=%d workers 1 vs 8", name, islands), ref, got)
		}
	}
}

// TestIslandCountsChangeTrajectoriesNotValidity: different island
// counts are different (equally valid) searches; each must still
// satisfy the structural invariants.
func TestIslandCountsChangeTrajectoriesNotValidity(t *testing.T) {
	p := &matchProblem{target: target(16, 5), alleles: 5}
	for _, islands := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.PopSize = 60
		cfg.Generations = 100
		cfg.Islands = islands
		res, err := RunContext(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IslandEvaluations) != islands {
			t.Fatalf("islands=%d: len(IslandEvaluations) = %d", islands, len(res.IslandEvaluations))
		}
		sum := 0
		for _, v := range res.IslandEvaluations {
			sum += v
		}
		if sum != res.Evaluations {
			t.Fatalf("islands=%d: per-island evals sum %d != total %d", islands, sum, res.Evaluations)
		}
		wantMig := 0
		if islands > 1 {
			wantMig = len(migrationGens(cfg.Generations, DefaultMigrationEvery)) * islands * DefaultMigrants
		}
		if res.Migrations != wantMig {
			t.Fatalf("islands=%d: Migrations = %d, want %d", islands, res.Migrations, wantMig)
		}
	}
}

// migrationGens returns the generations at which migration fires for
// a search of gens generations at cadence every. Migration never fires
// at the final generation (there is nothing left to breed from it).
// TestIslandCountsChangeTrajectoriesNotValidity ties the engine's
// Migrations counter to this schedule.
func migrationGens(gens, every int) []int {
	var out []int
	for g := every; g < gens; g += every {
		out = append(out, g)
	}
	return out
}

// TestGoldenMigrationSchedule pins the migration schedule itself: the
// exact generations at which the ring exchange fires for the paper's
// production search shape (600 generations, cadence 16). A change
// here silently changes every multi-island trajectory.
func TestGoldenMigrationSchedule(t *testing.T) {
	got := migrationGens(600, 16)
	if len(got) != 37 {
		t.Fatalf("len(migrationGens(600,16)) = %d, want 37", len(got))
	}
	for i, g := range got {
		if g != 16*(i+1) {
			t.Fatalf("migrationGens(600,16)[%d] = %d, want %d", i, g, 16*(i+1))
		}
	}
	if last := got[len(got)-1]; last != 592 {
		t.Fatalf("last migration at generation %d, want 592", last)
	}
	// The final generation never migrates: nothing breeds from it.
	if gens := migrationGens(32, 16); len(gens) != 1 || gens[0] != 16 {
		t.Fatalf("migrationGens(32,16) = %v, want [16]", gens)
	}
}

// TestRingMigrationTopology drives migrate directly: after one
// exchange, island (i+1) mod N holds island i's pre-migration elites
// in place of its own worst individuals.
func TestRingMigrationTopology(t *testing.T) {
	p := newIntSumProblem(12, 6)
	cfg := DefaultConfig()
	cfg.PopSize = 30
	cfg.Generations = 10
	cfg.Islands = 3
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.islands {
		isl := &e.islands[i]
		isl.reset(e)
		isl.fillRandom(e)
		isl.scoreInitial(e)
		isl.rank()
	}
	m := e.migrants
	if m != DefaultMigrants {
		t.Fatalf("migrants = %d, want %d", m, DefaultMigrants)
	}
	top := make([][][]uint8, len(e.islands))
	for i := range e.islands {
		isl := &e.islands[i]
		for j := 0; j < m; j++ {
			g := append([]uint8(nil), isl.pop[isl.perm[j]].genes...)
			top[i] = append(top[i], g)
		}
	}
	e.migrate()
	for i := range e.islands {
		dst := &e.islands[(i+1)%len(e.islands)]
		for j := 0; j < m; j++ {
			found := false
			for r := 0; r < dst.size && !found; r++ {
				found = fmt.Sprint(dst.pop[r].genes) == fmt.Sprint(top[i][j])
			}
			if !found {
				t.Fatalf("island %d's elite %d missing from ring successor %d after migrate", i, j, (i+1)%len(e.islands))
			}
		}
	}
	if e.migrations != len(e.islands)*m {
		t.Fatalf("migrations counter = %d, want %d", e.migrations, len(e.islands)*m)
	}
}

// TestEngineReuseByteIdentical: repeat Run calls on one Engine must
// reproduce the first run exactly — RNG streams re-seed, populations
// rebuild. This is the zero-alloc BenchmarkGASearch shape.
func TestEngineReuseByteIdentical(t *testing.T) {
	problems := map[string]Problem{
		"plain":       &matchProblem{target: target(14, 5), alleles: 5},
		"incremental": newIntSumProblem(20, 7),
	}
	for name, p := range problems {
		cfg := DefaultConfig()
		cfg.PopSize = 48
		cfg.Generations = 80
		cfg.Islands = 2
		e, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ref := first.Clone()
		again, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, name+" engine reuse", ref, again)
	}
}

// TestWarmStartSeedsPopulation: a warm-start vector enters the initial
// population, so planting the optimum makes generation 0 perfect.
func TestWarmStartSeedsPopulation(t *testing.T) {
	tgt := target(18, 5)
	p := &matchProblem{target: tgt, alleles: 5}
	cfg := DefaultConfig()
	cfg.PopSize = 40
	cfg.Generations = 5
	cfg.Islands = 2
	cfg.WarmStart = [][]int{append([]int(nil), tgt...)}
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[0] != float64(len(tgt)) {
		t.Fatalf("warm-started History[0] = %v, want %v", res.History[0], float64(len(tgt)))
	}
	if res.BestScore != float64(len(tgt)) {
		t.Fatalf("warm-started BestScore = %v, want %v", res.BestScore, float64(len(tgt)))
	}

	cfg.WarmStart = [][]int{make([]int, 3)}
	if _, err := RunContext(context.Background(), p, cfg); err == nil {
		t.Fatal("wrong-length warm-start vector accepted")
	}
}

// TestCapturePopulation: the final population comes back with the
// requested shape, contains the winner, and package-level Run hands
// the caller an independent copy.
func TestCapturePopulation(t *testing.T) {
	p := &matchProblem{target: target(12, 4), alleles: 4}
	cfg := DefaultConfig()
	cfg.PopSize = 36
	cfg.Generations = 40
	cfg.Islands = 3
	cfg.CapturePopulation = true
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Population) != cfg.PopSize {
		t.Fatalf("len(Population) = %d, want %d", len(res.Population), cfg.PopSize)
	}
	foundBest := false
	for _, row := range res.Population {
		if len(row) != 12 {
			t.Fatalf("population row of length %d, want 12", len(row))
		}
		if fmt.Sprint(row) == fmt.Sprint(res.Best) {
			foundBest = true
		}
	}
	if !foundBest {
		t.Fatal("Best individual missing from captured population")
	}
	// Defensive copy: corrupting the returned rows must not leak into a
	// fresh identical run.
	for _, row := range res.Population {
		for i := range row {
			row[i] = -1
		}
	}
	again, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range again.Population {
		for _, g := range row {
			if g < 0 || g >= 4 {
				t.Fatalf("fresh run returned corrupted population gene %d", g)
			}
		}
	}

	cfg.CapturePopulation = false
	bare, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Population != nil {
		t.Fatal("Population captured without CapturePopulation")
	}
}

// TestIslandConfigValidation covers the island-specific New errors and
// the never-failing defaults.
func TestIslandConfigValidation(t *testing.T) {
	p := &matchProblem{target: target(8, 3), alleles: 3}
	cfg := DefaultConfig()
	cfg.PopSize = 20

	cfg.Islands = -1
	if _, err := New(p, cfg); err == nil {
		t.Error("negative island count accepted")
	}
	cfg.Islands = 11 // > PopSize/2
	if _, err := New(p, cfg); err == nil {
		t.Error("islands > PopSize/2 accepted")
	}
	cfg.Islands = 4
	cfg.Elitism = 5 // == island size
	if _, err := New(p, cfg); err == nil {
		t.Error("elitism >= island size accepted")
	}
	// Defaulted island count must shrink itself into validity for any
	// population the single-population engine accepted.
	cfg.Islands = 0
	for _, pop := range []int{2, 3, 5, 8, 33, 200} {
		cfg.PopSize = pop
		cfg.Elitism = 1
		if _, err := New(p, cfg); err != nil {
			t.Errorf("defaulted islands rejected PopSize=%d: %v", pop, err)
		}
	}
}

// TestDefaultIslandsIgnoreGOMAXPROCS: with Islands left at 0, the
// island count — and so the whole trajectory — depends on the
// population alone, so one search is byte-identical on hosts with
// different core counts.
func TestDefaultIslandsIgnoreGOMAXPROCS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopSize = 64
	cfg.Generations = 60
	p := newIntSumProblem(24, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := RunContext(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		sameResult(t, fmt.Sprintf("GOMAXPROCS=%d", procs), ref, res)
	}
}
