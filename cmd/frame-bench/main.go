// Command frame-bench regenerates the FRAME paper's evaluation (§VI) from
// the simulated test-bed: Tables 4 and 5, Figures 7, 8, and 9, and the
// multi-edge sweep. The two live-runtime experiments, shardscale and
// gateway, run only when named.
//
// Usage:
//
//	frame-bench -exp all                # the six simulated experiments (minutes)
//	frame-bench -exp table4 -runs 10    # one experiment, paper-scale reps
//	frame-bench -exp fig9 -crash 20s    # longer crash window
//	frame-bench -exp shardscale         # live shard-count sweep
//
// With -scrape, frame-bench additionally (or, with -exp none, exclusively)
// scrapes a live broker's /metrics admin endpoint and stores the samples as
// a CSV artifact next to the experiment CSVs — the runtime counterpart of
// the offline evaluation:
//
//	frame-bench -exp none -scrape localhost:7470 -csv artifacts
//
// Scale note: defaults are laptop-sized (3 runs, seconds-long windows);
// the paper used 10 runs × 60 s. Overloaded configurations (FCFS at ≥7525
// topics) score higher here than in the paper because a shorter window
// bounds how far an unstable queue grows; all orderings and crossover
// points are preserved. See EXPERIMENTS.md.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obsv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiment: table4, table5, fig7, fig8, fig9, multiedge, shardscale, gateway, or all (the six simulated paper experiments)")
		shards  = flag.String("shards", "", "shardscale: comma-separated shard counts to sweep (default 1,2,4)")
		minSpd  = flag.Float64("min-speedup", 0, "shardscale: fail unless last/first throughput reaches this factor (skipped when CPUs < largest shard count)")
		clients = flag.Int("clients", 0, "gateway: sustained simulated client population (default 10000)")
		churn   = flag.Int("churn", 0, "gateway: target connection churn in connects/s (default 600)")
		minCh   = flag.Float64("min-churn", 0, "gateway: fail unless achieved churn reaches this many connects/s (default 500; negative disables)")
		runs    = flag.Int("runs", 0, "repetitions per cell (default 5; paper used 10)")
		measure = flag.Duration("measure", 0, "fault-free measurement window (default 4s; paper used 60s)")
		crash   = flag.Duration("crash", 0, "crash-run window, crash at midpoint (default 8s)")
		seed    = flag.Int64("seed", 1, "base random seed")
		quiet   = flag.Bool("quiet", false, "suppress per-run progress")
		csvDir  = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
		scrape  = flag.String("scrape", "", "scrape a live broker's /metrics (host:port or URL) into the CSV artifacts")
	)
	flag.Parse()

	cfg := experiments.Config{
		Runs:         *runs,
		Measure:      *measure,
		CrashMeasure: *crash,
		Seed:         *seed,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	type formatter interface {
		Format() string
		WriteCSV(io.Writer) error
	}
	type experiment struct {
		name string
		run  func() (formatter, error)
		// explicitOnly experiments measure the live runtime, not the
		// paper's simulated test-bed, and are skipped by -exp all.
		explicitOnly bool
	}
	table := []experiment{
		{"table4", func() (formatter, error) { return experiments.RunTable4(cfg) }, false},
		{"table5", func() (formatter, error) { return experiments.RunTable5(cfg) }, false},
		{"fig7", func() (formatter, error) { return experiments.RunFig7(cfg) }, false},
		{"fig8", func() (formatter, error) { return experiments.RunFig8(cfg) }, false},
		{"fig9", func() (formatter, error) { return experiments.RunFig9(cfg) }, false},
		{"multiedge", func() (formatter, error) { return experiments.RunMultiEdge(cfg) }, false},
		{"gateway", func() (formatter, error) {
			return experiments.RunGatewayChurn(cfg, experiments.GatewayChurnOptions{
				Clients:   *clients,
				ChurnRate: *churn,
				Window:    *measure,
				MinChurn:  *minCh,
			})
		}, true},
		{"shardscale", func() (formatter, error) {
			sweep, err := parseCounts("shards", *shards)
			if err != nil {
				return nil, err
			}
			return experiments.RunShardScale(cfg, experiments.ShardScaleOptions{Shards: sweep, MinSpeedup: *minSpd})
		}, true},
	}

	matched := *exp == "none" // -exp none: scrape-only invocation
	for _, e := range table {
		if *exp != e.name && (*exp != "all" || e.explicitOnly) {
			continue
		}
		matched = true
		start := time.Now()
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("\n%s\n(regenerated in %v)\n", res.Format(), time.Since(start).Round(time.Second))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.name, res); err != nil {
				return err
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown -exp %q (want table4, table5, fig7, fig8, fig9, multiedge, shardscale, gateway, all, or none)", *exp)
	}
	if *scrape != "" {
		if err := scrapeMetrics(*scrape, *csvDir); err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
	}
	return nil
}

// parseCounts turns a comma-separated positive-integer list into a sweep;
// empty keeps the experiment's default.
func parseCounts(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -%s entry %q (want positive integers)", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// scrapeMetrics pulls one Prometheus exposition off a live broker's admin
// endpoint and stores it as metrics.csv (metric,labels,value) in dir, or on
// stdout when no -csv directory was given.
func scrapeMetrics(target, dir string) error {
	url := target
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	u, err := neturl.Parse(url)
	if err != nil {
		return err
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/metrics"
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, "metrics.csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer func() {
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", path, len(samples))
		}()
		out = f
	}
	cw := csv.NewWriter(out)
	if err := cw.Write([]string{"metric", "labels", "value"}); err != nil {
		return err
	}
	for _, s := range samples {
		if err := cw.Write([]string{s.Name, s.Label, strconv.FormatFloat(s.Value, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCSV stores one experiment's data under dir/<name>.csv.
func writeCSV(dir, name string, res interface{ WriteCSV(io.Writer) error }) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
