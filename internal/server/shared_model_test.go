package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"

	"npudvfs/internal/executor"
	"npudvfs/internal/profiler"
	"npudvfs/internal/thermal"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// pinnedFingerprints are the registry digests traceio's own tests hold
// Fingerprint to.
func pinnedFingerprints(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../traceio/testdata/registry_fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// TestSharedModelStaysUntouched is the audit behind workload.ByName
// sharing one model per name, as a test: everything the tree does with
// a served workload — a whole job on the bundle path and on the
// BuildModels path, executing the strategy, a power profile, writing
// the trace out — leaves the registry's model equal to a freshly
// constructed one, digest included.
func TestSharedModelStaysUntouched(t *testing.T) {
	pinned := pinnedFingerprints(t)
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name  string // resnet50 has a bundle in the fixture, vit has none
		fresh func() *workload.Model
	}{
		{"resnet50", workload.ResNet50},
		{"vit", workload.ViTBase},
	} {
		m, err := workload.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		code, st := submit(t, ts, `{"workload": "`+tc.name+`", "search": {"pop": 16, "gens": 8, "seed": 41}}`)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit answered %d", tc.name, code)
		}
		if st = waitJob(t, ts, st.ID); st.State != traceio.JobDone {
			t.Fatalf("%s: job finished %q (%s)", tc.name, st.State, st.Error)
		}
		strat, err := traceio.ReadStrategy(bytes.NewReader(st.Result.Strategy))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.lab.MeasureStrategy(m, strat, executor.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		p := profiler.New(s.lab.Chip, 1)
		if _, err := p.RunPower(m.Trace, 1800, s.lab.Ground, thermal.NewState(s.lab.Thermal)); err != nil {
			t.Fatal(err)
		}
		if err := traceio.WriteWorkload(io.Discard, m); err != nil {
			t.Fatal(err)
		}

		if again, _ := workload.ByName(tc.name); again != m {
			t.Errorf("%s: ByName no longer returns the shared model", tc.name)
		}
		if fresh := tc.fresh(); fresh.Name != m.Name || !reflect.DeepEqual(m.Trace, fresh.Trace) {
			t.Errorf("%s: shared model differs from a freshly built one after being served", tc.name)
		}
		if got := traceio.Fingerprint(m.Trace); got != pinned[tc.name] || got != st.Result.Fingerprint {
			t.Errorf("%s: fingerprint %s, pinned %s, served %s", tc.name, got, pinned[tc.name], st.Result.Fingerprint)
		}
	}
}

// TestFirstCallsFreshProcess runs the first ByName of a process from
// eight goroutines at once, each going on to fingerprint the shared
// trace and submit it while the workers already build models from it.
// Earlier tests in this binary have resolved these names, so the body
// runs in a child process (this binary again, only this test): under
// -race, that is the check that a slot's first build is ordered before
// every reader and that serving never writes to the model.
func TestFirstCallsFreshProcess(t *testing.T) {
	const env = "NPUDVFS_TEST_FRESH_PROCESS"
	if os.Getenv(env) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstCallsFreshProcess$", "-test.timeout=5m")
		cmd.Env = append(os.Environ(), env+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh process: %v\n%s", err, out)
		}
		return
	}

	pinned := pinnedFingerprints(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Shutdown(context.Background())
	}()
	names := []string{"vit", "deit"}
	ids := make([]string, 8)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(g+i)%len(names)]
				m, err := workload.ByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				if got := traceio.Fingerprint(m.Trace); got != pinned[name] {
					t.Errorf("%s: fingerprint %s, pinned %s", name, got, pinned[name])
				}
			}
			body := `{"workload": "` + names[g%len(names)] + `", "search": {"pop": 8, "gens": 2}}`
			resp, err := http.Post(ts.URL+"/v1/strategies", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st traceio.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[g] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, id := range ids {
		st := waitJob(t, ts, id)
		if st.State != traceio.JobDone || st.Result.Fingerprint != pinned[names[g%len(names)]] {
			t.Errorf("job %s: state %q (%s), result %+v", id, st.State, st.Error, st.Result)
		}
	}
}
