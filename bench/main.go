// Command bench is the repository's benchmark: it brings real brokers up in
// this process, drives them over loopback TCP through the client package
// only, checks every delivery, and prints end-to-end metrics (plain run) or
// per-layer metrics (traced run). See README.md in this directory.
//
//	go run ./bench -workload paper_mix -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
		seed     = flag.Int64("seed", 1, "seed for the arrival schedule and payload filler")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written under -out")
		out      = flag.String("out", "bench/out", "directory for span files and the durable log")
		aa       = flag.Int("aa", 0, "run every workload (or the one named by -workload) this many times on -seed and print each metric's spread against its bound")
		selftest = flag.Bool("selftest", false, "check the rig itself: bytes on the wire and layer attribution of an injected delay")
		flipAt   = flag.Int64("flip", 0, "corrupt one byte of the n-th measured message; the run must then fail its checks")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}
	began := time.Now()
	var err error
	switch {
	case *selftest:
		err = selfTest(*seed, *out)
	case *aa > 0:
		err = runAA(*name, *aa, *seed, *seconds, *out)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace == 1, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *out, *flipAt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *selftest || *aa > 0 || *name == "all" {
		fmt.Printf("total wall time %.1f s\n", time.Since(began).Seconds())
	}
}

// runOne is the mode the benchmark driver uses: one workload, one run, in
// this process.
func runOne(name string, seed int64, seconds int, traced bool, outDir string, flipAt int64) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	cfg := runConfig{w: w, seed: seed, seconds: seconds, trace: traced, outDir: outDir, flipAt: flipAt, since: procStart}
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	if res.genLate && res.checkErr == nil {
		if os.Getenv(secondAttempt) == "" {
			// The generator, not the system, was late: the run says nothing.
			// The second attempt gets a process of its own, or rss_peak_mb
			// would carry this one's memory.
			fmt.Fprintf(os.Stderr, "bench: gen.late_p99_us = %.0f exceeds %v, running once more\n",
				res.values["gen.late_p99_us"], lateLimit)
			_, err := child(name, seed, seconds, traced, outDir, os.Stdout, secondAttempt+"=1")
			return err
		}
		res.notes = append(res.notes, "generator late again; latencies include its lateness")
	}
	if traced {
		if err := isolated(w, res); err != nil {
			return fmt.Errorf("isolated timings: %w", err)
		}
		if w.loop == ackLoop {
			if err := isolatedDisk(outDir, w.topics[0].PayloadSize, res); err != nil {
				return fmt.Errorf("isolated disk timings: %w", err)
			}
		}
	}
	res.print(os.Stdout, traced)
	if res.checkErr != nil {
		// Corrupt, reordered or duplicated output: no result line.
		return fmt.Errorf("%s: %w", name, res.checkErr)
	}
	fmt.Println(res.outcome(traced).line())
	return nil
}

// secondAttempt is set in the environment of the process that repeats a run
// whose generator was late, so that it does not repeat it again.
const secondAttempt = "BENCH_SECOND_ATTEMPT"

// child runs one workload in a process of its own, as the driver does, so
// that rss_peak_mb and set-up are not shared between runs. env is added to
// its environment.
func child(name string, seed int64, seconds int, traced bool, outDir string, echo io.Writer, env ...string) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t, "-out", outDir)
	cmd.Env = append(os.Environ(), env...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if echo != nil {
		echo.Write(stdout.Bytes())
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return parseOutcome(stdout.String())
}

func runAll(seed int64, seconds int, traced bool, outDir string) error {
	for _, name := range workloadNames {
		if _, err := child(name, seed, seconds, false, outDir, os.Stdout); err != nil {
			return err
		}
		if traced {
			if _, err := child(name, seed, seconds, true, outDir, os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// quartiles returns the first and third quartile and the median the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the benchmark driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runAA measures the benchmark's own noise: n runs of every workload on the
// same code and seed, then for each end-to-end metric the spread the driver
// will compute, next to the bound the metric declares.
func runAA(only string, n int, seed int64, seconds int, outDir string) error {
	for _, name := range workloadNames {
		if only != "" && only != "all" && only != name {
			continue
		}
		runs := make(map[string][]float64)
		for i := 0; i < n; i++ {
			o, err := child(name, seed, seconds, false, outDir, nil)
			if err != nil {
				return err
			}
			if !o.Correct || o.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", name, seed, o.Correct, o.Failed, o.Attempted)
			}
			for k, v := range o.Metrics {
				runs[k] = append(runs[k], v.Value)
			}
		}
		fmt.Printf("%s: %d runs of %d s, seed %d\n", name, n, seconds, seed)
		fmt.Printf("  %-22s %-5s %12s %12s %12s %8s %7s\n", "metric", "unit", "min", "median", "max", "iqr/med", "bound")
		for _, d := range endToEnd {
			v := append([]float64(nil), runs[d.Name]...)
			q1, q2, q3 := quartiles(v)
			sort.Float64s(v)
			spread := (q3 - q1) / q2
			mark := ""
			if spread > d.Bound {
				mark = "  OVER"
			}
			fmt.Printf("  %-22s %-5s %12.3f %12.3f %12.3f %7.2f%% %6.1f%%%s\n",
				d.Name, d.Unit, v[0], q2, v[len(v)-1], 100*spread, 100*d.Bound, mark)
		}
		for _, d := range endToEnd {
			fmt.Printf("  %-22s in run order: %.4g\n", d.Name, runs[d.Name])
		}
	}
	return nil
}
