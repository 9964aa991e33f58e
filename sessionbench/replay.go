package main

import (
	"errors"
	"fmt"

	"stat/internal/bitvec"
	"stat/internal/core"
	"stat/internal/machine"
	"stat/internal/sample"
	"stat/internal/stackwalk"
	"stat/internal/topology"
	"stat/internal/trace"
)

// The layer replay drives each layer's public functions on a session's
// inputs in session order — per daemon: stack generation, PC resolution,
// the sampling engine, leaf encode; per TBON depth: decode, merge,
// encode; at the front end: the final decode, the delta fold and the
// equivalence classes — timing every call as a span. Its final trees must
// be byte-identical to the traced session's, which proves it ran the
// session's request shape.
//
// Two differences from the session are deliberate. Each interior node
// merges all its children in one call (the shape the concurrent and
// pipelined engines use), where the default sequential engine folds one
// child at a time and re-decodes its accumulator at every step; that
// extra work is session overhead and shows in core.session_over_replay.
// And the stack generation and PC resolution passes run beside the
// engine, not inside it, so they measure those layers' floors.

// replayGather is one replayed gather's work, in nanoseconds and counts.
type replayGather struct {
	stacks, pcs                 int64
	stackgenNs, resolveNs       int64
	sampleNs, walkNs, encodeNs  int64
	levelNs                     []int64 // by TBON depth
	decodeNs, foldNs, classesNs int64
	engine                      sample.Stats // Engine.Stats() delta over the gather
}

// sessionNs is the gather's time in the calls that make up the session
// (the floor passes excluded).
func (g *replayGather) sessionNs() int64 {
	t := g.sampleNs + g.encodeNs + g.decodeNs + g.foldNs + g.classesNs
	for _, l := range g.levelNs {
		t += l
	}
	return t
}

type replayResult struct {
	gathers []replayGather
	// final and classes fingerprint the final trees and their classes.
	final, classes digest
}

// nopPin satisfies trace.Pin for buffers the replay keeps alive itself
// until every tree decoded from them is released.
type nopPin struct{}

func (nopPin) Retain()  {}
func (nopPin) Release() {}

// symbolTable parses the machine's binaries the way core.New does.
func symbolTable(m *machine.Machine) (*stackwalk.SymbolTable, error) {
	if m.StaticBinary {
		img, err := stackwalk.StaticImage()
		if err != nil {
			return nil, err
		}
		return stackwalk.ParseImage(img)
	}
	images, err := stackwalk.AppImages()
	if err != nil {
		return nil, err
	}
	var tables []*stackwalk.SymbolTable
	for _, b := range m.Binaries {
		img, ok := images[b.Module]
		if !ok {
			return nil, fmt.Errorf("no image for module %q", b.Module)
		}
		st, err := stackwalk.ParseImage(img)
		if err != nil {
			return nil, err
		}
		tables = append(tables, st)
	}
	return stackwalk.Merge(tables...)
}

// replayer holds one replayed session's state.
type replayer struct {
	opts    core.Options
	version uint8
	hier    bool
	delta   bool // the session invites delta frames
	taskMap [][]int
	topo    *topology.Tree
	eng     *sample.Engine
	cache   *stackwalk.Cache
	codec   *trace.Codec
	remap   *bitvec.Remapper
	rec     *recorder
	pcs     []uint64

	// per-gather state
	g              *replayGather
	base           int
	deltaN, wholeN int
}

// replay runs the layer replay for a session configured by opts, whose
// tool negotiated wire version `version`.
func replay(opts core.Options, tool *core.Tool, version uint8, rec *recorder) (*replayResult, error) {
	st, err := symbolTable(opts.Machine)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		opts:    opts,
		version: version,
		hier:    opts.BitVec == core.Hierarchical,
		delta:   opts.Stream > 0 && version >= trace.WireV2,
		taskMap: tool.TaskMap(),
		topo:    tool.Topology(),
		eng:     sample.New(opts.App, st, 0),
		cache:   stackwalk.NewCache(st, false),
		codec:   trace.NewCodec(),
		rec:     rec,
	}
	if rp.hier {
		perm := make([]int, 0, opts.Tasks)
		for _, ranks := range rp.taskMap {
			perm = append(perm, ranks...)
		}
		if rp.remap, err = bitvec.NewRemapper(perm, opts.Tasks); err != nil {
			return nil, err
		}
	}

	out := &replayResult{}
	var live2, live3 *trace.Tree
	var classes []trace.Class
	sessionSpan := rec.begin("replay.session", 0)
	for round := 0; round <= opts.Stream; round++ {
		g := replayGather{levelNs: make([]int64, len(rp.topo.Levels))}
		rp.g, rp.base, rp.deltaN, rp.wholeN = &g, round*opts.Samples, 0, 0
		before := rp.eng.Stats()
		gatherSpan := rec.begin("replay.gather", sessionSpan)
		root, err := rp.produce(rp.topo.Root, gatherSpan)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		isDelta := rp.deltaN > 0
		if isDelta && rp.wholeN > 0 {
			return nil, fmt.Errorf("round %d: %d daemons answered with deltas and %d whole; the session re-gathers such a round, the replay cannot", round, rp.deltaN, rp.wholeN)
		}
		if isDelta {
			name, decode := rp.frontDecoder(true)
			id := rec.begin(name, gatherSpan)
			d2, err2 := decode(root[0])
			d3, err3 := decode(root[1])
			g.decodeNs = rec.end(id)
			if err := errors.Join(err2, err3); err != nil {
				return nil, fmt.Errorf("round %d front-end decode: %w", round, err)
			}
			id = rec.begin("trace.ApplyDelta", gatherSpan)
			err = errors.Join(trace.ApplyDelta(live2, d2), trace.ApplyDelta(live3, d3))
			g.foldNs = rec.end(id)
			d2.Release()
			d3.Release()
			if err != nil {
				return nil, fmt.Errorf("round %d fold: %w", round, err)
			}
		} else {
			name, decode := rp.frontDecoder(false)
			id := rec.begin(name, gatherSpan)
			t2, err2 := decode(root[0])
			t3, err3 := decode(root[1])
			g.decodeNs = rec.end(id)
			if err := errors.Join(err2, err3); err != nil {
				return nil, fmt.Errorf("round %d front-end decode: %w", round, err)
			}
			if live2 != nil {
				live2.Release()
				live3.Release()
			}
			live2, live3 = t2, t3
		}
		id := rec.begin("trace.Tree.EquivalenceClasses", gatherSpan)
		classes = live2.EquivalenceClasses()
		g.classesNs = rec.end(id)
		rec.end(gatherSpan)
		g.engine = statsDelta(rp.eng.Stats(), before)
		out.gathers = append(out.gathers, g)
	}
	rec.end(sessionSpan)
	var dg digester
	out.final, err = dg.trees(live2, live3)
	out.classes = classesDigest(classes)
	return out, err
}

// produce returns node n's output for the current gather: the encoded 2D
// and 3D trees (or delta frames) it sends to its parent.
func (rp *replayer) produce(n *topology.Node, parent int32) ([2][]byte, error) {
	if n.IsLeaf() {
		return rp.leaf(n.LeafIndex, parent)
	}
	nodeSpan := rp.rec.begin(fmt.Sprintf("tbon.node.L%d", n.Level), parent)
	defer rp.rec.end(nodeSpan)
	children := make([][2][]byte, 0, len(n.Children))
	for _, c := range n.Children {
		out, err := rp.produce(c, nodeSpan)
		if err != nil {
			return [2][]byte{}, err
		}
		children = append(children, out)
	}
	id := rp.rec.begin(fmt.Sprintf("trace.merge.L%d", n.Level), nodeSpan)
	out, err := rp.merge(children)
	rp.g.levelNs[n.Level] += rp.rec.end(id)
	return out, err
}

// leaf replays one daemon's gather.
func (rp *replayer) leaf(leaf int, parent int32) ([2][]byte, error) {
	o := rp.opts
	ranks := rp.taskMap[leaf]
	g := rp.g

	id := rp.rec.begin("mpisim.App.AppendStackPCs", parent)
	rp.pcs = rp.pcs[:0]
	for _, rank := range ranks {
		for th := 0; th < o.ThreadsPerTask; th++ {
			for s := 0; s < o.Samples; s++ {
				rp.pcs = o.App.AppendStackPCs(rp.pcs, rank, th, rp.base+s)
			}
		}
	}
	g.stackgenNs += rp.rec.end(id)
	g.stacks += int64(len(ranks) * o.ThreadsPerTask * o.Samples)
	g.pcs += int64(len(rp.pcs))

	id = rp.rec.begin("stackwalk.Cache.Resolve", parent)
	for _, pc := range rp.pcs {
		rp.cache.Resolve(pc)
	}
	g.resolveNs += rp.rec.end(id)

	width := len(ranks)
	if !rp.hier {
		width = o.Tasks
	}
	req := sample.Request{
		Ranks:       ranks,
		GlobalIndex: !rp.hier,
		Width:       width,
		Samples:     o.Samples,
		Threads:     o.ThreadsPerTask,
		Base:        rp.base,
		Want2D:      true,
		Want3D:      true,
		Compress:    rp.version >= trace.WireV3,
		Delta:       rp.delta,
		Timed:       true,
	}
	var b sample.Batch
	if rp.delta {
		id = rp.rec.begin("sample.Engine.SampleKeyed", parent)
		b = rp.eng.SampleKeyed(leaf, req)
	} else {
		id = rp.rec.begin("sample.Engine.Sample", parent)
		b = rp.eng.Sample(req)
	}
	g.sampleNs += rp.rec.end(id)
	g.walkNs += b.WalkNanos

	var out [2][]byte
	var err2, err3 error
	if b.DeltaOK {
		rp.deltaN++
		id = rp.rec.begin("trace.Tree.AppendBinaryDeltaV", parent)
		out[0], err2 = b.Delta2D.AppendBinaryDeltaV(nil, rp.version)
		out[1], err3 = b.Delta3D.AppendBinaryDeltaV(nil, rp.version)
	} else {
		rp.wholeN++
		id = rp.rec.begin("trace.Tree.AppendBinaryV", parent)
		out[0], err2 = b.Tree2D.AppendBinaryV(nil, rp.version)
		out[1], err3 = b.Tree3D.AppendBinaryV(nil, rp.version)
	}
	b.Release()
	g.encodeNs += rp.rec.end(id)
	return out, errors.Join(err2, err3)
}

// merge combines children's outputs the way the session's filters do:
// hierarchical labels concatenate (aliasing decode + Codec.MergeConcat),
// original full-width labels union in place (copying decode +
// MergeUnion), and original-mode delta frames XOR (MergeXor).
func (rp *replayer) merge(children [][2][]byte) ([2][]byte, error) {
	delta := rp.deltaN > 0
	var out [2][]byte
	for k := range out {
		var err error
		if rp.hier {
			out[k], err = rp.mergeConcat(children, k, delta)
		} else {
			out[k], err = rp.mergeInPlace(children, k, delta)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (rp *replayer) mergeConcat(children [][2][]byte, k int, delta bool) ([]byte, error) {
	c := rp.codec
	parts := make([]*trace.Tree, 0, len(children))
	defer func() {
		for _, t := range parts {
			t.Release()
		}
	}()
	for _, ch := range children {
		var t *trace.Tree
		var err error
		if delta {
			t, err = c.DecodeDeltaAliasing(ch[k], nopPin{})
		} else {
			t, err = c.DecodeTreeAliasing(ch[k], nopPin{})
		}
		if err != nil {
			return nil, err
		}
		parts = append(parts, t)
	}
	m := c.MergeConcat(parts...)
	defer m.Release()
	if delta {
		return m.AppendBinaryDeltaV(nil, rp.version)
	}
	return m.AppendBinaryV(nil, rp.version)
}

func (rp *replayer) mergeInPlace(children [][2][]byte, k int, delta bool) ([]byte, error) {
	c := rp.codec
	decode := c.DecodeTree
	combine := trace.MergeUnion
	if delta {
		decode, combine = c.DecodeDelta, trace.MergeXor
	}
	acc, err := decode(children[0][k])
	if err != nil {
		return nil, err
	}
	defer acc.Release()
	for _, ch := range children[1:] {
		t, err := decode(ch[k])
		if err != nil {
			return nil, err
		}
		err = combine(acc, t)
		t.Release()
		if err != nil {
			return nil, err
		}
	}
	if delta {
		return acc.AppendBinaryDeltaV(nil, rp.version)
	}
	return acc.AppendBinaryV(nil, rp.version)
}

// frontDecoder is the front end's final decode and its span name: fused
// with the rank remap in hierarchical mode, plain in original mode. The
// trees it returns own their storage.
func (rp *replayer) frontDecoder(delta bool) (string, func([]byte) (*trace.Tree, error)) {
	switch {
	case rp.hier && delta:
		return "trace.UnmarshalDeltaRemapped", func(b []byte) (*trace.Tree, error) { return trace.UnmarshalDeltaRemapped(b, rp.remap) }
	case rp.hier:
		return "trace.UnmarshalBinaryRemapped", func(b []byte) (*trace.Tree, error) { return trace.UnmarshalBinaryRemapped(b, rp.remap) }
	case delta:
		return "trace.UnmarshalDelta", trace.UnmarshalDelta
	default:
		return "trace.UnmarshalBinary", trace.UnmarshalBinary
	}
}

func statsDelta(a, b sample.Stats) sample.Stats {
	return sample.Stats{
		SampledStacks:     a.SampledStacks - b.SampledStacks,
		StackMemoHits:     a.StackMemoHits - b.StackMemoHits,
		DistinctStacks:    a.DistinctStacks - b.DistinctStacks,
		PCsResolved:       a.PCsResolved - b.PCsResolved,
		PCCacheMisses:     a.PCCacheMisses - b.PCCacheMisses,
		Snapshots:         a.Snapshots - b.Snapshots,
		SnapshotTornReads: a.SnapshotTornReads - b.SnapshotTornReads,
		PrefetchedWalks:   a.PrefetchedWalks - b.PrefetchedWalks,
		HiddenWalkNanos:   a.HiddenWalkNanos - b.HiddenWalkNanos,
		DeltaRounds:       a.DeltaRounds - b.DeltaRounds,
	}
}
