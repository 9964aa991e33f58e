package main

import (
	"fmt"
	"io"
	"time"
)

// selftestTasks is the reduced task count the self-test runs every
// workload at: 32 BG/L VN daemons, still a 2-deep tree.
const selftestTasks = 4096

// selftest checks the benchmark itself: its workload and metric lists
// match BENCHMARK.json; every workload, shrunk to selftestTasks, runs
// timed and traced with every named metric produced under its unit and
// no failed gather; and the output check rejects a perturbed tree.
func selftest(w io.Writer, specPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if err := matchSpec(sp); err != nil {
		return err
	}
	fmt.Fprintf(w, "selftest: %s matches %d workloads, %d end-to-end and %d per-layer metrics\n",
		specPath, len(workloads), len(endToEndMetrics), len(perLayerMetrics))
	for _, wl := range workloads {
		wl.tasks = selftestTasks
		for _, traced := range []bool{false, true} {
			var r *result
			var err error
			if traced {
				r, err = tracedRun(io.Discard, wl, DefaultSeed, time.Nanosecond, "")
			} else {
				r, err = timedRun(wl, DefaultSeed, time.Nanosecond)
			}
			if err != nil {
				return fmt.Errorf("%s (traced=%t): %w", wl.name, traced, err)
			}
			if missing := r.metrics.missing(); len(missing) > 0 {
				return fmt.Errorf("%s (traced=%t): metrics not produced: %v", wl.name, traced, missing)
			}
			for _, d := range r.metrics.defs {
				if got := r.metrics.values[d.name].Unit; got != d.unit {
					return fmt.Errorf("%s: metric %s printed with unit %q, want %q", wl.name, d.name, got, d.unit)
				}
			}
			if r.failed != 0 {
				return fmt.Errorf("%s (traced=%t): %d of %d gathers failed the output check", wl.name, traced, r.failed, r.attempted)
			}
			fmt.Fprintf(w, "selftest: %-26s traced=%-5t %d metrics, %d gathers checked, 0 failed\n",
				wl.name, traced, len(r.metrics.values), r.attempted)
		}
	}
	if err := perturbedTreeFails(); err != nil {
		return err
	}
	fmt.Fprintln(w, "selftest: the output check rejects a perturbed tree and a missing class")
	fmt.Fprintln(w, "selftest: ok")
	return nil
}

// matchSpec compares the workload and metric lists with BENCHMARK.json,
// names and units both, in order.
func matchSpec(sp *spec) error {
	if len(sp.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, wl := range sp.Workloads {
		if wl.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wl.Name, workloads[i].name)
		}
	}
	type nameUnit struct{ name, unit string }
	var e2e, layer []nameUnit
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, nameUnit{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, nameUnit{m.Name, m.Unit})
	}
	for _, part := range []struct {
		what string
		got  []nameUnit
		defs []metricDef
	}{{"end_to_end", e2e, endToEndMetrics}, {"per_layer", layer, perLayerMetrics}} {
		if len(part.got) != len(part.defs) {
			return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark prints %d", part.what, len(part.got), len(part.defs))
		}
		for i, d := range part.defs {
			if part.got[i] != (nameUnit{d.name, d.unit}) {
				return fmt.Errorf("BENCHMARK.json %s[%d] is %v, the benchmark prints %s in %s", part.what, i, part.got[i], d.name, d.unit)
			}
		}
	}
	return nil
}

// perturbedTreeFails runs one small one-shot session, confirms it passes
// the output check, then adds one stack to its 3D tree, and separately
// drops one of its equivalence classes, and confirms the same check fails
// each time.
func perturbedTreeFails() error {
	wl := workloads[0]
	wl.tasks = selftestTasks
	opts, err := wl.options(DefaultSeed)
	if err != nil {
		return err
	}
	ref, err := reference(opts)
	if err != nil {
		return err
	}
	s, err := runSession(opts)
	if err != nil {
		return err
	}
	if _, failed := check(s, ref); failed != 0 {
		return fmt.Errorf("perturbation test: the unperturbed session failed the output check")
	}
	perturbed := s.res.Tree3D.Clone()
	perturbed.AddStack(0, "_start", "main", "perturbed")
	var dg digester
	if s.digests[0], err = dg.trees(s.res.Tree2D, perturbed); err != nil {
		return err
	}
	if _, failed := check(s, ref); failed != 1 {
		return fmt.Errorf("perturbation test: the output check accepted a 3D tree with an extra stack")
	}
	s.digests[0], s.classes = ref.digests[0], classesDigest(s.res.Classes[1:])
	if _, failed := check(s, ref); failed != 1 {
		return fmt.Errorf("perturbation test: the output check accepted a missing equivalence class")
	}
	return nil
}
