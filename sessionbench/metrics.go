package main

import "math"

// metricDef names one reported metric. The end-to-end list is what a run
// with --trace 0 prints, the per-layer list what --trace 1 prints; both
// must match BENCHMARK.json at the root of the repository (the self-test
// checks it).
type metricDef struct {
	name, unit, desc string
}

// A "gather" is one merged stack-trace result: a whole one-shot session,
// or one steady streamed round (rounds 1..Stream; the cold round 0 that
// opens a stream is excluded from every per-round figure). The timings
// come from the run's quiet sessions (see quietSessions): those during
// which the hypervisor gave little of the host's CPU to other guests.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "median wall time of core.New; every session of the run sets up afresh"},
	{"session_s_p50", "s", "median wall time of Tool.Run over the run's quiet sessions (at most 2% host steal, or the least-stolen half), minus time spent in the benchmark's own round hooks; the figure for one-shot workloads (a stream session is the cold gather plus the workload's fixed round count, whose per-round figure is round_ms_p50)"},
	{"session_s_tail", "s", "tail of the same samples; the report names the percentile and the sample count"},
	{"round_ms_p50", "ms", "median wall time per gather: the interval between consecutive Options.StreamRound callbacks over steady rounds; the figure for stream workloads. A one-shot session is one gather, so there it repeats session_s_p50 in ms (an alias, not a second measurement)"},
	{"round_ms_tail", "ms", "tail of the same samples; the report names the percentile and the sample count (an alias of session_s_tail on one-shot workloads)"},
	{"stacks_per_s", "1/s", "useful stack walks merged per wall second: tasks x threads x samples x gathers over the summed gather wall time; useful walks come from the workload shape, not from SampledStacks, which counts speculative walks. Derived from the round_ms samples (their mean, inverted), not a separate measurement"},
	{"fe_ingress_bytes", "bytes", "front-end ingress per gather: Result.FrontEndInBytes, or (StreamDeltaBytes+StreamWholeBytes)/StreamRounds for streams"},
	{"modeled_s", "s", "MODELED, not measured: machine-scale PhaseTimes.Total() for one-shot sessions; for streams, PhaseTimes.Stream/StreamRounds, a steady round's reduction modeled from its actual traffic (the warm walk is a per-machine constant, reported as machine.modeled_steady_walk_s); never add it to or compare it with a measured time"},
	{"heap_peak_mb", "MB", "runtime.MemStats.HeapSys high-water over the warm-up and timed sessions (the reference run comes after)"},
	{"retained_heap_mb", "MB", "HeapInuse after a forced GC at the end of the timed sessions, with the last Tool and Result still referenced"},
}

var perLayerMetrics = []metricDef{
	{"mpisim.stackgen_ns_per_stack", "ns", "replay: mpisim.App.AppendStackPCs per stack; the emulated application's floor, which no STAT change may move"},
	{"stackwalk.resolve_ns_per_pc", "ns", "replay: stackwalk.Cache.Resolve per PC on a cache shared across daemons, as the engine shares its own"},
	{"stackwalk.pcs_resolved", "count", "replay: Engine.Stats().PCsResolved per gather (memo hits skip resolution)"},
	{"stackwalk.cache_miss_frac", "ratio", "replay: Engine.Stats() PCCacheMisses / PCsResolved per gather"},
	{"sample.walk_ns_per_stack", "ns", "replay: Batch.WalkNanos per useful stack walk"},
	{"sample.walk_s", "s", "telemetry frame: SpanWalk sum over daemons per gather"},
	{"sample.seal_s", "s", "telemetry frame: SpanSeal sum over daemons per gather"},
	{"sample.walk_max_ms", "ms", "telemetry frame: SpanWalk.MaxNs, the slowest daemon's walk, which gates the gather"},
	{"sample.memo_hit_frac", "ratio", "replay: Engine.Stats() StackMemoHits / SampledStacks, from per-round deltas"},
	{"sample.memo_entries", "count", "replay: Engine.Stats().DistinctStacks at the end of the replayed session (memo entries built)"},
	{"sample.useful_walk_frac", "ratio", "useful walks from the workload shape / Result.SampleStats.SampledStacks of the traced session. SampledStacks counts speculative walks at GOMAXPROCS >= 2, and is snapshotted after the cold gather, so streamed rounds are missing from it; streamed-round sample counters come from the replay instead"},
	{"sample.hidden_walk_s", "s", "Result.SampleStats.HiddenWalkNanos of the traced session (cold gather only, same snapshot defect)"},
	{"sample.delta_rounds", "count", "replay: Engine.Stats().DeltaRounds per gather (daemon rounds that extracted a delta)"},
	{"trace.encode_s", "s", "telemetry frame: SpanEncode sum per gather"},
	{"trace.merge_s", "s", "telemetry frame: SpanMerge sum per gather"},
	{"trace.merge_max_ms", "ms", "telemetry frame: SpanMerge.MaxNs per gather"},
	{"trace.level_merge_ms.L0", "ms", "replay: decode + merge + encode at TBON depth 0 (the front end's filter) per gather"},
	{"trace.level_merge_ms.L1", "ms", "replay: decode + merge + encode at TBON depth 1 (communication processes) per gather"},
	{"trace.remap_decode_ms", "ms", "replay: front-end decode (UnmarshalBinaryRemapped, UnmarshalDeltaRemapped, or the unremapped forms in original mode) per gather"},
	{"trace.classes_ms", "ms", "replay: Tree.EquivalenceClasses on the 2D tree per gather"},
	{"trace.fold_ms_per_round", "ms", "replay: trace.ApplyDelta of both trees per gather; zero for one-shot sessions"},
	{"trace.alias_hit_frac", "ratio", "Result.AliasDecodeHits / (hits + misses) of the cold gather; zero where the copying decode runs (original mode)"},
	{"trace.tree_nodes_2d", "count", "NodeCount of the final 2D tree"},
	{"trace.tree_nodes_3d", "count", "NodeCount of the final 3D tree"},
	{"bitvec.label_bytes", "bytes", "Result.LabelStats.Bytes() of the cold gather; zero on v1/v2 streams, where every label is dense"},
	{"bitvec.run_label_frac", "ratio", "Result.LabelStats run labels / all labels of the cold gather"},
	{"tbon.packets", "count", "Result.MergeStats.Packets of the cold gather"},
	{"tbon.level_in_bytes.L0", "bytes", "Result.MergeStats.LevelInBytes[0] of the cold gather"},
	{"tbon.level_in_bytes.L1", "bytes", "Result.MergeStats.LevelInBytes[1] of the cold gather"},
	{"tbon.leaf_payload_max_bytes", "bytes", "Result.MaxLeafPayloadBytes of the cold gather"},
	{"tbon.reduce_wait_s", "s", "telemetry frame: SpanReduceWait sum per gather (the sequential engine reports each child subtree's production time, nested levels included)"},
	{"tbon.send_s", "s", "telemetry frame: SpanSend sum per gather"},
	{"core.session_over_replay", "ratio", "median traced Tool.Run wall / the replay's wall for the same session (sample, encode, merges, decode, fold, classes)"},
	{"core.stream_mixed_retries", "count", "Result.StreamMixedRetries, highest over the traced sessions"},
	{"telemetry.overhead_ratio", "ratio", "median gather time with Options.Telemetry on / off, sessions interleaved"},
	{"telemetry.frame_daemons", "count", "telemetry frame: Frame.Daemons"},
	{"machine.modeled_sample_s", "s", "MODELED: PhaseTimes.Sample"},
	{"machine.modeled_merge_s", "s", "MODELED: PhaseTimes.Merge"},
	{"machine.modeled_remap_s", "s", "MODELED: PhaseTimes.Remap"},
	{"machine.modeled_steady_walk_s", "s", "MODELED: PhaseTimes.SampleSteady, a warm round's walk; it depends only on tasks per daemon and the machine"},
	{"runtime.gc_cycles", "count", "GC cycles during untraced Tool.Run calls per gather (runtime.MemStats.NumGC)"},
	{"runtime.gc_pause_ms", "ms", "GC stop-the-world pause during untraced Tool.Run calls per gather (runtime.MemStats.PauseTotalNs)"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for a fixed metric list; set refuses names the
// list does not declare, so a typo cannot silently add a metric.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

// set records a value; NaN (a median of no samples, when every session
// failed) is recorded as 0, since the failure already shows in the
// failed count.
func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) {
		v = 0
	}
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("sessionbench: undeclared metric " + name)
}

// missing lists declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
