package chaos_test

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/faultinject"
)

// runPlane runs every shipped scenario whose outermost plane is plane
// ("pair", "shard", "gateway" or "durable"). Under -short only the Smoke
// subset runs (the PR-gating configuration); `make chaos` runs everything
// under -race.
func runPlane(t *testing.T, plane string) {
	artifacts := os.Getenv("FRAME_CHAOS_ARTIFACTS")
	for _, sc := range chaos.All() {
		if outermost(sc) != plane {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && !sc.Smoke {
				t.Skip("not in the -short smoke subset")
			}
			seed := faultinject.SeedFromEnv(chaos.DefaultSeed(sc.Name))
			res, err := chaos.Run(sc, chaos.RunOptions{Seed: seed, ArtifactsDir: artifacts})
			if err != nil {
				t.Fatalf("seed=%d setup: %v (replay: FRAME_CHAOS_SEED=%d)", seed, err, seed)
			}
			t.Logf("seed=%d published=%d acked=%d delivered=%d dups=%d publishErrs=%d pruned=%d recovered=%d elapsed=%v",
				res.Seed, res.Published, res.Acked, res.Delivered, res.Duplicates, res.PublishErrs,
				res.Pruned, res.Recovered, res.Elapsed)
			if !res.Passed() {
				t.Logf("replay: FRAME_CHAOS_SEED=%d go test -count=1 -run '%s' ./internal/chaos/", res.Seed, t.Name())
				if res.ArtifactPath != "" {
					t.Logf("artifact: %s", res.ArtifactPath)
				}
				t.Log(res.Transcript.String())
				for _, f := range res.Failures {
					t.Errorf("invariant violated: %s", f)
				}
			}
		})
	}
}

// outermost is the plane whose test entry point runs the scenario.
func outermost(sc chaos.Scenario) string {
	planes := sc.Planes()
	return planes[len(planes)-1]
}

// The four entry points split the one registry by outermost plane; the
// composed shard+gateway scenario runs with the gateway ones.
func TestChaosScenarios(t *testing.T)        { runPlane(t, "pair") }
func TestShardChaosScenarios(t *testing.T)   { runPlane(t, "shard") }
func TestGatewayChaosScenarios(t *testing.T) { runPlane(t, "gateway") }
func TestDurableChaosScenarios(t *testing.T) { runPlane(t, "durable") }

// TestScenarioNamesUniqueAndSmokeSubset guards the registry shape the CI
// pipelines depend on: unique names, Find resolving every name and
// rejecting an unknown one, and for each test entry point (a scenario's
// outermost plane, as runPlane selects them) enough scenarios, at least
// one of them Smoke so its -short gate runs something.
func TestScenarioNamesUniqueAndSmokeSubset(t *testing.T) {
	seen := map[string]bool{}
	n, smoke := map[string]int{}, map[string]int{}
	for _, sc := range chaos.All() {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		n[outermost(sc)]++
		if sc.Smoke {
			smoke[outermost(sc)]++
		}
		if got, err := chaos.Find(sc.Name); err != nil || got.Name != sc.Name {
			t.Errorf("Find(%q) = %q, %v", sc.Name, got.Name, err)
		}
	}
	for p, want := range map[string]int{"pair": 6, "shard": 2, "gateway": 2, "durable": 2} {
		if n[p] < want {
			t.Errorf("%d %s scenarios shipped, want >= %d", n[p], p, want)
		}
		if smoke[p] == 0 {
			t.Errorf("no Smoke %s scenario — its -short gate would run nothing", p)
		}
	}
	if _, err := chaos.Find("no-such-scenario"); err == nil {
		t.Error("Find accepted an unknown name")
	}
}

// checkPlane guards one plane's slice of the registry: at least two
// scenarios deploy it, at least one is Smoke, and each passes isPlaneTest,
// which names what is missing for the scenario to exercise the plane.
func checkPlane(t *testing.T, plane string, isPlaneTest func(chaos.Scenario) string) {
	t.Helper()
	n, smoke := 0, 0
	for _, sc := range chaos.All() {
		if !slices.Contains(sc.Planes(), plane) {
			continue
		}
		n++
		if sc.Smoke {
			smoke++
		}
		if why := isPlaneTest(sc); why != "" {
			t.Errorf("%s scenario %q %s", plane, sc.Name, why)
		}
	}
	if n < 2 {
		t.Errorf("%d %s scenarios shipped, want >= 2", n, plane)
	}
	if smoke == 0 {
		t.Errorf("no Smoke %s scenarios — the %s-smoke gate would run nothing", plane, plane)
	}
}

// TestDurableScenarioRegistry guards the dual-crash scenarios `make
// durable-smoke` depends on: each scripts a kill of the whole pair, and
// kill-both-brokers (run by name) is present.
func TestDurableScenarioRegistry(t *testing.T) {
	checkPlane(t, "durable", func(sc chaos.Scenario) string {
		for _, st := range sc.Script {
			if st.At > 0 && st.Do != nil && strings.Contains(st.Desc, "kill the entire pair") {
				return ""
			}
		}
		return "never kills the pair — not a dual-crash test"
	})
	if sc, err := chaos.Find("kill-both-brokers"); err != nil || sc.Durable == nil {
		t.Errorf("kill-both-brokers missing from the durable plane: %v", err)
	}
}

// TestGatewayScenarioRegistry guards the gateway scenarios: each attaches
// thin clients through the gateway.
func TestGatewayScenarioRegistry(t *testing.T) {
	checkPlane(t, "gateway", func(sc chaos.Scenario) string {
		for _, r := range sc.Receivers {
			if r.Gateway {
				return ""
			}
		}
		return "has no thin clients — not a connection-plane test"
	})
}

// TestShardScenarioRegistry guards the shard scenarios: each runs on a
// cluster of at least two pairs.
func TestShardScenarioRegistry(t *testing.T) {
	checkPlane(t, "shard", func(sc chaos.Scenario) string {
		if sc.Shards < 2 {
			return fmt.Sprintf("runs on %d shards — not a sharding test", sc.Shards)
		}
		return ""
	})
}

// TestDefaultSeedPinned pins the per-name default seed: replay commands in
// old failure artifacts must still replay the same fault lottery.
func TestDefaultSeedPinned(t *testing.T) {
	if got, want := chaos.DefaultSeed("crash-promote"), int64(1459199967707422195); got != want {
		t.Fatalf("DefaultSeed(crash-promote) = %d, want %d", got, want)
	}
}
