package agg

import (
	"dgs/internal/par"
	"dgs/internal/ps"
	"dgs/internal/sparse"
)

// fanout is the forwarder's per-window fan-out scratch: after the window's
// single ApplyDiff it answers every contributor with G = M − v_k computed
// against the refreshed mirror (Eq. 3, Algorithm 2 line 4).
//
// Contributors sharing a clean downward fingerprint (ps.DownHorizon: same
// horizon, no residual bit) provably hold bitwise-identical v_k, so they
// would gather bitwise-identical diffs. Each such group gathers and encodes
// once, in its first contributor (the leader); the others fold the leader's
// update (ApplyGathered, O(nnz) instead of the dirty-block scan) and copy
// its frame. Residual-dirty contributors always gather for themselves.
//
// Both phases run on every core without a new lock:
//
//   - each contributor touches only its own mirror slot — that slot's
//     worker mutex plus the model read lock inside Gather/ApplyGathered;
//   - the forwarder is the mirror's only writer, and its ApplyDiff
//     happened before either phase starts, so every gather sees the same M
//     and the same clock;
//   - a leader's gathered update (the mirror's scratch for its slot) and its
//     frame are rewritten only by that slot's next window, which this
//     forwarder completes after run returns. That is what lets a leader be
//     answered — and its worker push again — before phase 2 reads from it:
//     the next push only decodes into the slot's upd, and a rejoin's Resync
//     leaves the gather scratch alone.
type fanout struct {
	gather []*pending // phase 1: residual-dirty contributors and group leaders
	share  []*pending // phase 2: clean contributors answered from their leader
	leads  []leader   // one per clean fingerprint seen in this window
}

type leader struct {
	h uint64
	p *pending
}

// run answers every part and reports how many frames it shared and how
// many it encoded; the two always sum to len(parts).
func (f *fanout) run(loc *ps.Server, parts []*pending) (shared, encoded uint64) {
	// Grouping reads each fingerprint before any gather moves it.
	f.gather, f.share, f.leads = f.gather[:0], f.share[:0], f.leads[:0]
	for _, p := range parts {
		h, clean := loc.DownHorizon(p.slot)
		p.lead = nil
		if !clean {
			f.gather = append(f.gather, p)
			continue
		}
		for _, l := range f.leads {
			if l.h == h {
				p.lead = l.p
				break
			}
		}
		if p.lead != nil {
			f.share = append(f.share, p)
			continue
		}
		f.leads = append(f.leads, leader{h, p})
		f.gather = append(f.gather, p)
	}

	par.Each(len(f.gather), func(i int) {
		p := f.gather[i]
		p.G, p.tSeen = loc.Gather(p.slot)
		p.resp = sparse.AppendEncode(p.resp[:0], &p.G)
		p.err = nil
		p.ready <- struct{}{}
	})
	par.Each(len(f.share), func(i int) {
		p := f.share[i]
		l := p.lead
		loc.ApplyGathered(p.slot, &l.G, l.tSeen)
		p.resp = append(p.resp[:0], l.resp...)
		p.err = nil
		p.ready <- struct{}{}
	})
	return uint64(len(f.share)), uint64(len(f.gather))
}
