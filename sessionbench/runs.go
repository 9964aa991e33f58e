package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"stat/internal/core"
	"stat/internal/telemetry"
)

// gatherTimes are a session's measured gather times in seconds: its
// steady rounds, or the whole one-shot Tool.Run.
func gatherTimes(s *session, stream bool) []float64 {
	if !stream {
		return []float64{s.run.Seconds()}
	}
	out := make([]float64, len(s.rounds))
	for i, r := range s.rounds {
		out[i] = r.Seconds()
	}
	return out
}

// ingressPerGather is the front end's ingress for one measured gather.
func ingressPerGather(res *core.Result) float64 {
	if res.StreamRounds > 0 {
		return float64(res.StreamDeltaBytes+res.StreamWholeBytes) / float64(res.StreamRounds)
	}
	return float64(res.FrontEndInBytes)
}

// modeledSeconds is the machine model's time for one gather. Modeled,
// never measured: it is reported beside measured times, not mixed in.
//
// For a one-shot session it is PhaseTimes.Total(). For a streamed round
// it is the round's reduction as modeled from its actual traffic
// (PhaseTimes.Stream over the rounds). The round's warm walk
// (PhaseTimes.SampleSteady) is left out: it depends only on tasks per
// daemon and the machine model, so it is the same constant on every seed
// and would swamp the one term a change to the program can move. It is
// reported per layer as machine.modeled_steady_walk_s.
func modeledSeconds(res *core.Result) float64 {
	if res.StreamRounds > 0 {
		return res.Times.Stream / float64(res.StreamRounds)
	}
	return res.Times.Total()
}

// extraSetups is how many standalone core.New calls a timed run makes
// besides the sessions' own.
const extraSetups = 40

// quietSteal is the most host CPU time the hypervisor may give other
// guests during a session for the session's times to count. Steal marks
// the periods when a neighbouring guest slows this one: on a 2-vCPU Xeon
// VM, bgl208k_original sessions ran 2.0-2.4 s below 1% steal and
// 2.7-3.7 s at 5-22%, with the process's own CPU time rising with wall
// time, so the neighbour slows execution as well as taking turns.
const quietSteal = 0.02

// quietSessions picks the sessions whose times the run reports: those
// with at most quietSteal of the host's CPU time stolen, or, when fewer
// than half the sessions are that quiet, the least-stolen half. Every
// session is still checked for correctness; only its times are left out.
func quietSessions(sessions []*session) ([]*session, string) {
	bySteal := append([]*session(nil), sessions...)
	sort.SliceStable(bySteal, func(i, j int) bool { return stealOf(bySteal[i]) < stealOf(bySteal[j]) })
	keep := (len(bySteal) + 1) / 2
	for keep < len(bySteal) && stealOf(bySteal[keep]) <= quietSteal {
		keep++
	}
	if keep == len(bySteal) {
		return sessions, ""
	}
	return bySteal[:keep], fmt.Sprintf("%d of %d sessions timed; %d ran at more than %g%% host steal and were left out",
		keep, len(bySteal), len(bySteal)-keep, 100*quietSteal)
}

// stealOf is a session's stolen share; unknown counts as quiet.
func stealOf(s *session) float64 {
	if !s.stealKnown {
		return 0
	}
	return s.steal
}

// nextSession drops the previous session and collects its garbage, so
// every session starts from the same heap; the collection is not timed.
func nextSession(prev *session) {
	if prev != nil {
		prev.release()
		runtime.GC()
	}
}

// warmUp runs one untimed session before a run's timed ones. The first
// session of a process runs 10-25% slower than the rest while the heap
// grows to its working size; left in, it would sit in the top quartile of
// a short run and move the tail from run to run. Its output is still
// checked.
func warmUp(opts core.Options) (*session, error) {
	s, err := runSession(opts)
	if err != nil {
		return nil, fmt.Errorf("warm-up session: %w", err)
	}
	nextSession(s)
	return s, nil
}

// timedRun runs one untimed warm-up session, then sessions back to back
// for the budget (at least one, and the one in flight when the budget
// ends finishes), then the reference, and reports the end-to-end metrics;
// the timings come from the quiet sessions only.
func timedRun(w workload, seed uint64, budget time.Duration) (*result, error) {
	opts, err := w.options(seed)
	if err != nil {
		return nil, err
	}
	var sessions []*session
	var setups, ingress, modeled []float64
	// Set-up takes milliseconds, so a run adds standalone set-ups to the
	// one every session makes before taking the median.
	for i := 0; i < extraSetups; i++ {
		start := time.Now()
		if _, err := core.New(opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	warm, err := warmUp(opts)
	if err != nil {
		return nil, err
	}
	steal := startSteal()
	var last *session
	for deadline := time.Now().Add(budget); last == nil || time.Now().Before(deadline); {
		nextSession(last)
		s, err := runSession(opts)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
		setups = append(setups, s.setup.Seconds())
		if s.envFailure == "" {
			ingress = append(ingress, ingressPerGather(s.res))
			modeled = append(modeled, modeledSeconds(s.res))
		}
		last = s
	}
	stealNote := steal.note()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapPeak := ms.HeapSys
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := ms.HeapInuse
	nextSession(last) // last stays referenced until here

	ref, err := reference(opts)
	if err != nil {
		return nil, err
	}
	r := &result{metrics: newMetricSet(endToEndMetrics), notes: map[string]string{hostStealNote: stealNote}}
	for _, s := range append(sessions, warm) {
		a, f := check(s, ref)
		r.attempted += a
		r.failed += f
	}
	timed, quietNote := quietSessions(sessions)
	var runs, units []float64
	for _, s := range timed {
		runs = append(runs, s.run.Seconds())
		units = append(units, gatherTimes(s, opts.Stream > 0)...)
	}
	if quietNote != "" {
		r.notes[hostStealNote] += "; " + quietNote
	}
	m := r.metrics
	m.set("setup_s", median(setups))
	r.notes["setup_s"] = fmt.Sprintf("median of n=%d", len(setups))
	m.set("session_s_p50", median(runs))
	r.notes["session_s_p50"] = fmt.Sprintf("n=%d", len(runs))
	v, note := tail(runs)
	m.set("session_s_tail", v)
	r.notes["session_s_tail"] = note
	ms1000 := make([]float64, len(units))
	for i, u := range units {
		ms1000[i] = u * 1000
	}
	m.set("round_ms_p50", median(ms1000))
	r.notes["round_ms_p50"] = fmt.Sprintf("n=%d", len(units))
	if opts.Stream > 0 {
		r.notes["round_ms_p50"] += "; median by round:" + roundMedians(timed)
	}
	v, note = tail(ms1000)
	m.set("round_ms_tail", v)
	r.notes["round_ms_tail"] = note
	m.set("stacks_per_s", ratio(float64(usefulWalks(opts))*float64(len(units)), sum(units)))
	m.set("fe_ingress_bytes", median(ingress))
	m.set("modeled_s", median(modeled))
	m.set("heap_peak_mb", float64(heapPeak)/(1<<20))
	m.set("retained_heap_mb", float64(retained)/(1<<20))
	return r, nil
}

// traceFacts are the Result counters of one traced session.
type traceFacts struct {
	usefulFrac, hiddenS, aliasFrac float64
	nodes2D, nodes3D               float64
	labelBytes, runFrac            float64
	packets, leafMax               float64
	levelIn                        []int64
	mixed                          int
	times                          core.PhaseTimes
	version                        uint8
}

func factsOf(res *core.Result, useful int64) traceFacts {
	f := traceFacts{
		usefulFrac: ratio(float64(useful), float64(res.SampleStats.SampledStacks)),
		hiddenS:    float64(res.SampleStats.HiddenWalkNanos) / 1e9,
		aliasFrac:  ratio(float64(res.AliasDecodeHits), float64(res.AliasDecodeHits+res.AliasDecodeMisses)),
		nodes2D:    float64(res.Tree2D.NodeCount()),
		nodes3D:    float64(res.Tree3D.NodeCount()),
		labelBytes: float64(res.LabelStats.Bytes()),
		runFrac:    ratio(float64(res.LabelStats.Run), float64(res.LabelStats.Labels())),
		leafMax:    float64(res.MaxLeafPayloadBytes),
		mixed:      res.StreamMixedRetries,
		times:      res.Times,
		version:    res.WireVersion,
	}
	if res.MergeStats != nil {
		f.packets = float64(res.MergeStats.Packets)
		f.levelIn = res.MergeStats.LevelInBytes
	}
	return f
}

// tracedRun runs one untimed warm-up session, then interleaves sessions
// with telemetry off and on (off, on, on, off, ...) for the budget,
// replays one session layer by layer, runs the reference, and reports the
// per-layer metrics.
func tracedRun(out io.Writer, w workload, seed uint64, budget time.Duration, spansPath string) (*result, error) {
	opts, err := w.options(seed)
	if err != nil {
		return nil, err
	}
	useful := usefulWalks(opts)
	var sessions []*session
	var on, off, onRuns []float64
	var frames []telemetry.Frame
	var facts []traceFacts
	var gcCycles, gcPauseNs, offRunGathers float64
	var tracedFinal, tracedClasses digest
	warm, err := warmUp(opts)
	if err != nil {
		return nil, err
	}
	sessions = append(sessions, warm)
	steal := startSteal()
	deadline := time.Now().Add(budget)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		o := opts
		o.Telemetry = i%4 == 1 || i%4 == 2
		s, err := runSession(o)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
		if o.Telemetry {
			on = append(on, gatherTimes(s, opts.Stream > 0)...)
			onRuns = append(onRuns, s.run.Seconds())
			frames = append(frames, s.frames...)
			if s.envFailure == "" {
				facts = append(facts, factsOf(s.res, useful))
				tracedFinal, tracedClasses = s.digests[len(s.digests)-1], s.classes
			}
		} else {
			off = append(off, gatherTimes(s, opts.Stream > 0)...)
			gcCycles += float64(s.gcCycles)
			gcPauseNs += float64(s.gcPauseNs)
			offRunGathers += float64(opts.Stream + 1)
		}
		nextSession(s)
	}
	stealNote := steal.note()
	if len(facts) == 0 {
		return nil, fmt.Errorf("no traced session completed: %s", sessions[2].envFailure)
	}

	// A fresh tool gives the replay the session's topology and task map;
	// it never runs, so it holds no sampler state.
	tool, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rec.newSession()
	rr, err := replay(opts, tool, facts[len(facts)-1].version, rec)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	runtime.GC() // the replay's engine is garbage now

	ref, err := reference(opts)
	if err != nil {
		return nil, err
	}
	r := &result{metrics: newMetricSet(perLayerMetrics), notes: map[string]string{hostStealNote: stealNote}}
	for _, s := range sessions {
		a, f := check(s, ref)
		r.attempted += a
		r.failed += f
	}
	r.attempted++
	replayNote := fmt.Sprintf("traced sessions n=%d; replay trees byte-identical to the traced session's", len(onRuns))
	if rr.final != tracedFinal || rr.classes != tracedClasses {
		r.failed++
		replayNote = fmt.Sprintf("traced sessions n=%d; REPLAY TREES DIFFER from the traced session's", len(onRuns))
	}

	measured := rr.gathers
	if opts.Stream > 0 {
		measured = measured[1:]
	}
	var stacks, pcs, stackgenNs, resolveNs, walkNs, sampled, hits, resolved, misses float64
	var l0, l1, decodeNs, foldNs, classesNs, deltaRounds float64
	for _, g := range measured {
		stacks += float64(g.stacks)
		pcs += float64(g.pcs)
		stackgenNs += float64(g.stackgenNs)
		resolveNs += float64(g.resolveNs)
		walkNs += float64(g.walkNs)
		sampled += float64(g.engine.SampledStacks)
		hits += float64(g.engine.StackMemoHits)
		resolved += float64(g.engine.PCsResolved)
		misses += float64(g.engine.PCCacheMisses)
		deltaRounds += float64(g.engine.DeltaRounds)
		l0 += float64(g.levelNs[0])
		l1 += float64(g.levelNs[1])
		decodeNs += float64(g.decodeNs)
		foldNs += float64(g.foldNs)
		classesNs += float64(g.classesNs)
	}
	var memoEntries, replayNs float64
	for _, g := range rr.gathers {
		memoEntries += float64(g.engine.DistinctStacks)
		replayNs += float64(g.sessionNs())
	}
	n := float64(len(measured))
	frame := func(f func(fr *telemetry.Frame) float64) float64 {
		xs := make([]float64, len(frames))
		for i := range frames {
			xs[i] = f(&frames[i])
		}
		return median(xs)
	}
	fact := func(f func(tf *traceFacts) float64) float64 {
		xs := make([]float64, len(facts))
		for i := range facts {
			xs[i] = f(&facts[i])
		}
		return median(xs)
	}
	spanSum := func(k telemetry.SpanKind) func(*telemetry.Frame) float64 {
		return func(fr *telemetry.Frame) float64 { return float64(fr.Spans[k].SumNs) / 1e9 }
	}
	maxMixed := 0
	for _, f := range facts {
		maxMixed = max(maxMixed, f.mixed)
	}

	m := r.metrics
	m.set("mpisim.stackgen_ns_per_stack", ratio(stackgenNs, stacks))
	m.set("stackwalk.resolve_ns_per_pc", ratio(resolveNs, pcs))
	m.set("stackwalk.pcs_resolved", resolved/n)
	m.set("stackwalk.cache_miss_frac", ratio(misses, resolved))
	m.set("sample.walk_ns_per_stack", ratio(walkNs, stacks))
	m.set("sample.walk_s", frame(spanSum(telemetry.SpanWalk)))
	m.set("sample.seal_s", frame(spanSum(telemetry.SpanSeal)))
	m.set("sample.walk_max_ms", frame(func(fr *telemetry.Frame) float64 { return float64(fr.Spans[telemetry.SpanWalk].MaxNs) / 1e6 }))
	m.set("sample.memo_hit_frac", ratio(hits, sampled))
	m.set("sample.memo_entries", memoEntries)
	m.set("sample.useful_walk_frac", fact(func(f *traceFacts) float64 { return f.usefulFrac }))
	m.set("sample.hidden_walk_s", fact(func(f *traceFacts) float64 { return f.hiddenS }))
	m.set("sample.delta_rounds", deltaRounds/n)
	m.set("trace.encode_s", frame(spanSum(telemetry.SpanEncode)))
	m.set("trace.merge_s", frame(spanSum(telemetry.SpanMerge)))
	m.set("trace.merge_max_ms", frame(func(fr *telemetry.Frame) float64 { return float64(fr.Spans[telemetry.SpanMerge].MaxNs) / 1e6 }))
	m.set("trace.level_merge_ms.L0", l0/n/1e6)
	m.set("trace.level_merge_ms.L1", l1/n/1e6)
	m.set("trace.remap_decode_ms", decodeNs/n/1e6)
	m.set("trace.classes_ms", classesNs/n/1e6)
	m.set("trace.fold_ms_per_round", foldNs/n/1e6)
	m.set("trace.alias_hit_frac", fact(func(f *traceFacts) float64 { return f.aliasFrac }))
	m.set("trace.tree_nodes_2d", fact(func(f *traceFacts) float64 { return f.nodes2D }))
	m.set("trace.tree_nodes_3d", fact(func(f *traceFacts) float64 { return f.nodes3D }))
	m.set("bitvec.label_bytes", fact(func(f *traceFacts) float64 { return f.labelBytes }))
	m.set("bitvec.run_label_frac", fact(func(f *traceFacts) float64 { return f.runFrac }))
	m.set("tbon.packets", fact(func(f *traceFacts) float64 { return f.packets }))
	m.set("tbon.level_in_bytes.L0", fact(func(f *traceFacts) float64 { return levelBytes(f.levelIn, 0) }))
	m.set("tbon.level_in_bytes.L1", fact(func(f *traceFacts) float64 { return levelBytes(f.levelIn, 1) }))
	m.set("tbon.leaf_payload_max_bytes", fact(func(f *traceFacts) float64 { return f.leafMax }))
	m.set("tbon.reduce_wait_s", frame(spanSum(telemetry.SpanReduceWait)))
	m.set("tbon.send_s", frame(spanSum(telemetry.SpanSend)))
	m.set("core.session_over_replay", ratio(median(onRuns), replayNs/1e9))
	m.set("core.stream_mixed_retries", float64(maxMixed))
	m.set("telemetry.overhead_ratio", ratio(median(on), median(off)))
	m.set("telemetry.frame_daemons", frame(func(fr *telemetry.Frame) float64 { return float64(fr.Daemons) }))
	m.set("machine.modeled_sample_s", fact(func(f *traceFacts) float64 { return f.times.Sample }))
	m.set("machine.modeled_merge_s", fact(func(f *traceFacts) float64 { return f.times.Merge }))
	m.set("machine.modeled_remap_s", fact(func(f *traceFacts) float64 { return f.times.Remap }))
	m.set("machine.modeled_steady_walk_s", fact(func(f *traceFacts) float64 { return f.times.SampleSteady }))
	m.set("runtime.gc_cycles", ratio(gcCycles, offRunGathers))
	m.set("runtime.gc_pause_ms", ratio(gcPauseNs/1e6, offRunGathers))

	r.notes["telemetry.overhead_ratio"] = fmt.Sprintf("gathers: %d traced, %d untraced", len(on), len(off))
	r.notes["core.session_over_replay"] = replayNote
	printReplay(out, rr, rec)
	if spansPath != "" {
		if err := rec.write(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.spans), spansPath)
	}
	return r, nil
}

// roundMedians formats each steady round's median over the sessions, in
// milliseconds, so a trend across rounds (heap growth, warming) shows.
func roundMedians(sessions []*session) string {
	var out string
	for r := 0; ; r++ {
		var xs []float64
		for _, s := range sessions {
			if r < len(s.rounds) {
				xs = append(xs, float64(s.rounds[r].Microseconds())/1000)
			}
		}
		if len(xs) == 0 {
			return out
		}
		out += fmt.Sprintf(" r%d=%.1f", r+1, median(xs))
	}
}

func levelBytes(levels []int64, d int) float64 {
	if d < len(levels) {
		return float64(levels[d])
	}
	return 0
}

// printReplay reports the replay per gather and the self time per span.
func printReplay(out io.Writer, rr *replayResult, rec *recorder) {
	fmt.Fprintln(out, "layer replay, per gather (round 0 is the cold gather):")
	fmt.Fprintf(out, "  %5s %10s %10s %10s %10s %8s %10s\n", "round", "walks", "memo_hits", "pcs", "distinct", "deltas", "session_ms")
	for i, g := range rr.gathers {
		fmt.Fprintf(out, "  %5d %10d %10d %10d %10d %8d %10.2f\n", i, g.engine.SampledStacks, g.engine.StackMemoHits,
			g.engine.PCsResolved, g.engine.DistinctStacks, g.engine.DeltaRounds, float64(g.sessionNs())/1e6)
	}
	fmt.Fprintln(out, "replay self time by span:")
	rec.printSelfTimes(out)
}
