package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"stat/internal/core"
	"stat/internal/telemetry"
	"stat/internal/trace"
)

// digest fingerprints part of a gather's output: the 2D and 3D trees'
// bytes, or the equivalence classes.
type digest [sha256.Size]byte

// digester fingerprints trees for the output check. It encodes each tree
// into one reused buffer, so digesting inside a StreamRound hook makes no
// garbage for a later measured round to collect.
type digester struct {
	buf []byte
}

// trees fingerprints the v1 encodings (dense full-width labels, the one
// form every wire version and label mode can be compared in) of both
// trees.
func (dg *digester) trees(t2, t3 *trace.Tree) (digest, error) {
	h := sha256.New()
	for _, t := range []*trace.Tree{t2, t3} {
		var err error
		if dg.buf, err = t.AppendBinary(dg.buf[:0]); err != nil {
			return digest{}, err
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(dg.buf)))
		h.Write(n[:])
		h.Write(dg.buf)
	}
	var d digest
	h.Sum(d[:0])
	return d, nil
}

// classesDigest fingerprints equivalence classes: each class's path and
// member tasks.
func classesDigest(classes []trace.Class) digest {
	h := sha256.New()
	var buf []byte
	for _, c := range classes {
		buf = buf[:0]
		for _, f := range c.Path {
			buf = append(buf, f...)
			buf = append(buf, 0)
		}
		buf = append(buf, 1)
		for _, task := range c.Tasks {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(task))
		}
		buf = append(buf, 2)
		h.Write(buf)
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// session is one measured core.New + Tool.Run.
type session struct {
	setup time.Duration
	// run is Tool.Run's wall time minus the time spent in this
	// benchmark's round hooks (digesting trees for the output check).
	run time.Duration
	// rounds are the steady-round intervals: from the return of round
	// r-1's StreamRound hook to the entry of round r's, r = 1..Stream.
	rounds []time.Duration
	// digests fingerprint every gather's trees: rounds 0..Stream, or the
	// one one-shot gather.
	digests []digest
	// classes fingerprints Result.Classes, the final tree's equivalence
	// classes. They are a function of the 2D tree, so they are checked
	// once per session rather than recomputed in every round's hook.
	classes digest
	// frames are the telemetry frames of the measured gathers: rounds
	// 1..Stream, or the one-shot cold gather. Empty with telemetry off.
	frames []telemetry.Frame
	// steal is the host's stolen CPU share during Tool.Run, when
	// /proc/stat tells (stealKnown).
	steal      float64
	stealKnown bool
	// gcCycles and gcPauseNs are the GC work inside Tool.Run.
	gcCycles  uint32
	gcPauseNs uint64
	// envFailure is non-empty when the session hit LaunchErr or MergeErr
	// or lost ranks; every gather of it then counts as failed.
	envFailure string
	tool       *core.Tool
	res        *core.Result
}

// runSession sets up and runs one session. An error means the session
// could not be configured or Tool.Run rejected it; environment failures
// and wrong outputs are left for check.
func runSession(opts core.Options) (*session, error) {
	s := &session{}
	var dg digester
	var hookTime time.Duration
	var lastExit time.Time
	var hookErr error
	if opts.Stream > 0 {
		opts.StreamRound = func(round int, _ bool, t2, t3 *trace.Tree) {
			enter := time.Now()
			if round > 0 {
				s.rounds = append(s.rounds, enter.Sub(lastExit))
			}
			d, err := dg.trees(t2, t3)
			if err != nil && hookErr == nil {
				hookErr = err
			}
			s.digests = append(s.digests, d)
			lastExit = time.Now()
			hookTime += lastExit.Sub(enter)
		}
		if opts.Telemetry {
			opts.StreamRoundTelemetry = func(round int, f *telemetry.Frame) {
				if round > 0 {
					s.frames = append(s.frames, *f)
				}
			}
		}
	}
	start := time.Now()
	tool, err := core.New(opts)
	s.setup = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steal := startSteal()
	start = time.Now()
	res, err := tool.Run()
	s.run = time.Since(start) - hookTime
	s.steal, s.stealKnown = steal.share()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("Tool.Run: %w", err)
	}
	if hookErr != nil {
		return nil, fmt.Errorf("digest: %w", hookErr)
	}
	s.gcCycles = after.NumGC - before.NumGC
	s.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	s.tool, s.res = tool, res
	switch {
	case res.LaunchErr != nil:
		s.envFailure = res.LaunchErr.Error()
	case res.MergeErr != nil:
		s.envFailure = res.MergeErr.Error()
	case res.MissingRanks != 0:
		s.envFailure = fmt.Sprintf("%d ranks missing", res.MissingRanks)
	}
	if res.Tree2D != nil && res.Tree3D != nil {
		s.classes = classesDigest(res.Classes)
		if opts.Stream == 0 {
			d, err := dg.trees(res.Tree2D, res.Tree3D)
			if err != nil {
				return nil, fmt.Errorf("digest: %w", err)
			}
			s.digests = []digest{d}
			if res.Telemetry != nil {
				s.frames = []telemetry.Frame{*res.Telemetry}
			}
		}
	}
	return s, nil
}

// release drops the session's references to the tool and its result, so
// the next session does not run beside a dead one's heap.
func (s *session) release() {
	s.tool, s.res = nil, nil
}

// check compares a session's gathers with the reference session's. It
// returns how many gathers were attempted and how many failed: errored
// (LaunchErr/MergeErr), lost ranks, ran short, or produced other trees
// than the reference; wrong classes fail the final gather. It reads only
// envFailure and the digests, so it works on released sessions.
func check(s, ref *session) (attempted, failed int) {
	attempted = len(ref.digests)
	if s.envFailure != "" || len(s.digests) != len(ref.digests) {
		return attempted, attempted
	}
	for i, d := range s.digests {
		last := i == len(s.digests)-1
		if d != ref.digests[i] || (last && s.classes != ref.classes) {
			failed++
		}
	}
	return attempted, failed
}

// reference runs the reference leg once and returns it released, holding
// one digest per gather (rounds 0..Stream for streams) and the classes'.
func reference(opts core.Options) (*session, error) {
	s, err := runSession(referenceOptions(opts))
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	s.release()
	switch {
	case s.envFailure != "":
		return nil, fmt.Errorf("reference run: %s", s.envFailure)
	case len(s.digests) != opts.Stream+1:
		return nil, fmt.Errorf("reference run produced %d gathers, want %d", len(s.digests), opts.Stream+1)
	}
	return s, nil
}
