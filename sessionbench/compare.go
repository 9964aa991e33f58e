package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads back: the
// workload names and the metric lists with their bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints each metric of two saved results side by side and,
// for end-to-end metrics, whether the change is worse than the bound
// BENCHMARK.json fixes. It refuses results from different hosts or of
// different runs: only paired same-host runs of the same workload,
// length and mode mean anything.
func compareFiles(w io.Writer, basePath, newPath, specPath string) error {
	base, err := readRecord(basePath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if base.Host != cur.Host {
		return fmt.Errorf("refusing to compare results from different hosts: %s: %s; %s: %s", basePath, base.Host, newPath, cur.Host)
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace || base.Seconds != cur.Seconds {
		return fmt.Errorf("refusing to compare different runs: %s/trace=%d/%ds vs %s/trace=%d/%ds",
			base.Workload, base.Trace, base.Seconds, cur.Workload, cur.Trace, cur.Seconds)
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	for _, m := range sp.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	defs := endToEndMetrics
	if base.Trace == 1 {
		defs = perLayerMetrics
	}
	fmt.Fprintf(w, "%s, host %s\nbase %s (seed %s, correct=%t)\nnew  %s (seed %s, correct=%t)\n",
		base.Workload, base.Host, basePath, base.Seed, base.Correct, newPath, cur.Seed, cur.Correct)
	for _, d := range defs {
		a, b := base.Metrics[d.name].Value, cur.Metrics[d.name].Value
		change := ratio(b-a, a)
		verdict := ""
		if r, ok := rules[d.name]; ok {
			worse := change > r.bound
			if r.better == "higher" {
				worse = change < -r.bound
			}
			verdict = fmt.Sprintf("bound %.0f%%", r.bound*100)
			if worse {
				verdict += ", WORSE beyond bound"
			}
		}
		fmt.Fprintf(w, "  %-30s %14.6g %14.6g %-6s %+8.2f%%  %s\n", d.name, a, b, d.unit, change*100, verdict)
	}
	return nil
}
