package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload k times with seeds seed0..seed0+k-1 and
// prints, for each end-to-end metric, the median, the quartiles and
// their distance as a share of the median against the metric's bound.
// It also prints each run's share of failed operations, which must be
// identical across runs.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	k := fs.Int("k", 10, "number of runs")
	seed0 := fs.Uint64("seed0", 1, "seed of the first run")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(*spec)
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err == nil {
		_, err = findWorkload(*name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	var shares []string
	for i := 0; i < *k; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n", seed, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: bad result (%v)\n", seed, err)
			return 1
		}
		line := fmt.Sprintf("seed %d: failed %d/%d", seed, res.Failed, res.Attempted)
		for _, m := range bf.EndToEnd {
			v := res.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			line += fmt.Sprintf(" %s=%.4g", m.Name, v)
		}
		fmt.Println(line)
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
	}
	fmt.Printf("\n%-18s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		spread := (q3 - q1) / q2
		verdict := "steady (< bound/3)"
		switch {
		case spread > m.Bound:
			verdict = "TOO WIDE"
		case spread > m.Bound/3:
			verdict = "within bound"
		}
		fmt.Printf("%-18s %12.5g %12.5g %12.5g %8.4f %6.2f  %s\n", m.Name, q1, q2, q3, spread, m.Bound, verdict)
	}
	fmt.Println("failed/attempted per run:", strings.Join(shares, " "))
	return 0
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
