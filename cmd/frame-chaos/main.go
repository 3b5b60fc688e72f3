// Command frame-chaos runs the scripted chaos scenarios of internal/chaos
// — one harness over one deployment description — against a real FRAME
// deployment over the fault-injected transport, and judges the FRAME
// invariants: each receiver's consecutive-loss and FIFO budget, promotion
// of the expected shard within the polling bound and of no other, the
// Table 3 prune/recovery discipline on every Backup, the gateway's
// isolation contract, and after a dual crash the durable log's ground
// truth (no acked publish lost, no on-disk-pruned message re-dispatched,
// the unpruned backlog recovery-dispatched exactly once). A scenario's
// deployment names its planes: one broker pair or a sharded cluster
// behind its routing Directory, optionally a gateway terminating
// reconnecting thin clients, optionally a durable Primary log.
//
// Every fault decision is driven by the seed, so a failed run replays
// exactly:
//
//	frame-chaos -scenario drop-replication -seed 12345
//
// Usage:
//
//	frame-chaos -list                         # shipped scenarios and their planes
//	frame-chaos                               # run everything
//	frame-chaos -smoke                        # PR-gate subset only
//	frame-chaos -scenario kill-both-brokers   # one scenario
//	frame-chaos -artifacts out/               # transcripts for failures
//
// The seed defaults to FRAME_CHAOS_SEED when set, else a per-scenario
// stable default; -seed overrides both. Exits 1 if any invariant fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/faultinject"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario  = flag.String("scenario", "", "run only the named scenario (default: all)")
		seedFlag  = flag.Int64("seed", 0, "fault lottery seed (0: FRAME_CHAOS_SEED or per-scenario default)")
		list      = flag.Bool("list", false, "list shipped scenarios and exit")
		smoke     = flag.Bool("smoke", false, "run only the Smoke subset (the PR gate)")
		artifacts = flag.String("artifacts", "", "directory for failure transcripts")
	)
	flag.Parse()

	if *list {
		for _, sc := range chaos.All() {
			gate := " "
			if sc.Smoke {
				gate = "*"
			}
			fmt.Printf("%s %-15s %-27s %s\n", gate, strings.Join(sc.Planes(), "+"), sc.Name, sc.Description)
		}
		fmt.Println("\n* = PR-gate smoke subset")
		return nil
	}

	var selected []chaos.Scenario
	if *scenario != "" {
		sc, err := chaos.Find(*scenario)
		if err != nil {
			return fmt.Errorf("%w (see -list)", err)
		}
		selected = append(selected, sc)
	} else {
		for _, sc := range chaos.All() {
			if !*smoke || sc.Smoke {
				selected = append(selected, sc)
			}
		}
	}

	failed := 0
	for _, sc := range selected {
		seed := *seedFlag
		if seed == 0 {
			seed = faultinject.SeedFromEnv(chaos.DefaultSeed(sc.Name))
		}
		res, err := chaos.Run(sc, chaos.RunOptions{Seed: seed, ArtifactsDir: *artifacts})
		if err != nil {
			return err
		}
		status := "PASS"
		if !res.Passed() {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-27s seed=%d published=%d acked=%d delivered=%d dups=%d publishErrs=%d pruned=%d recovered=%d elapsed=%v\n",
			status, sc.Name, res.Seed, res.Published, res.Acked, res.Delivered, res.Duplicates, res.PublishErrs,
			res.Pruned, res.Recovered, res.Elapsed)
		if !res.Passed() {
			for _, f := range res.Failures {
				fmt.Printf("     invariant violated: %s\n", f)
			}
			fmt.Printf("     replay: frame-chaos -scenario %s -seed %d\n", sc.Name, res.Seed)
			if res.ArtifactPath != "" {
				fmt.Printf("     artifact: %s\n", res.ArtifactPath)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(selected))
	}
	return nil
}
