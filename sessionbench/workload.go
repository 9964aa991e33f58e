package main

import (
	"fmt"

	"stat/internal/core"
	"stat/internal/machine"
	"stat/internal/mpisim"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// DefaultSeed is the stat CLI's default seed; HeldOutSeed is kept out of
// tuning so a later performance claim can be re-checked on inputs it was
// not developed against.
const (
	DefaultSeed uint64 = 0x208e3
	HeldOutSeed uint64 = 0x51a7e
)

// activeTask is the one rank that keeps drifting in the quiescent stream;
// rank 7 is a barrier task at every scale the workloads use.
const activeTask = 7

// workload is one benchmark input shape. Every workload runs the stat CLI
// defaults for BG/L: VN mode, the patched control system, the BG/L 2-deep
// topology, 10 samples per task, one thread per task, and the default
// reduction engine, overlap mode and wire negotiation.
type workload struct {
	name string
	why  string
	// tasks is the application's MPI task count.
	tasks int
	// bitvec selects the task-set representation (and with it the wire:
	// hierarchical negotiates v3, original caps at v2).
	bitvec core.BitVecMode
	// quiescent freezes every task's stack except activeTask's.
	quiescent bool
	// rounds is Options.Stream: steady rounds after the cold gather; zero
	// runs the paper's one-shot session.
	rounds int
}

var workloads = []workload{
	{
		name:   "bgl208k_oneshot",
		why:    "the paper's 208K-task BG/L VN shape, one cold gather; walking and PC resolve dominate and the stack memo almost never hits",
		tasks:  212992,
		bitvec: core.Hierarchical,
	},
	{
		name:   "bgl208k_original",
		why:    "the same walks with dense full-width labels on the v2 wire (Figure 5/7 baseline); the difference isolates merge, codec and bitvec",
		tasks:  212992,
		bitvec: core.Original,
	},
	{
		name:      "bgl208k_stream_quiescent",
		why:       "hang monitoring: streamed rounds over a frozen app; the memo hit path and ApplyDelta carry the work and deltas are tiny",
		tasks:     212992,
		bitvec:    core.Hierarchical,
		quiescent: true,
		rounds:    8,
	},
	{
		// 64K, not 208K: the keyed walkers' memo grows every round, and
		// at 208K ten rounds reach several GB of heap. One steady round
		// per session: later rounds run slower as the memo grows, and
		// mixing round positions would split the samples into clusters.
		name:   "bgl64k_stream_live",
		why:    "a streamed round over a drifting app: large deltas, no memo hits, and keyed-walker memo growth shows in retained heap",
		tasks:  65536,
		bitvec: core.Hierarchical,
		rounds: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// usefulWalks is the stack walks one gather needs, from the workload
// shape alone: tasks x threads x samples.
func usefulWalks(o core.Options) int64 {
	return int64(o.Tasks) * int64(o.ThreadsPerTask) * int64(o.Samples)
}

// options builds the session options and the application for a seed. The
// seed reaches the program only through Options.Seed and the generated
// application, whose seed is derived exactly as core derives its default
// application's, so the default seed reproduces the stat CLI's trees.
func (w workload) options(seed uint64) (core.Options, error) {
	appOpts := []mpisim.Option{mpisim.WithSeed(seed ^ 0xA99)}
	if w.quiescent {
		appOpts = append(appOpts, mpisim.WithActiveTask(activeTask))
	}
	app, err := mpisim.NewRing(w.tasks, appOpts...)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Machine:        machine.BGL(),
		Mode:           machine.VN,
		Tasks:          w.tasks,
		Topology:       topology.Spec{Kind: topology.KindBGL2Deep},
		BitVec:         w.bitvec,
		BGLPatched:     true,
		Samples:        10,
		ThreadsPerTask: 1,
		Seed:           seed,
		App:            app,
		Stream:         w.rounds,
	}, nil
}

// referenceOptions is the reference leg every output is checked against:
// sequential engine, quiesced walks, whole-tree rounds, telemetry off.
func referenceOptions(o core.Options) core.Options {
	o.Engine = tbon.EngineSeq
	o.Overlap = core.OverlapQuiesced
	o.StreamWholeTree = true
	o.Telemetry = false
	return o
}
