package sparse

// K-way sparse merge for the aggregation tier: the union of several
// workers' Top-k index sets with duplicate coordinates summed, produced in
// canonical wire order (ascending layer, ascending index within a layer) so
// the merged update encodes to a canonical frame any DGS peer accepts.
//
// Float addition does not commute bitwise, so determinism is a contract
// between the merger and its caller: values colliding on one coordinate are
// summed left to right in src order, and the caller fixes src order by
// something stable (the aggregator sorts a window's contributions by worker
// slot before merging). Under that contract a k-way merge is bitwise equal
// to the pairwise left fold merge(merge(src0,src1),src2)... — the per
// coordinate sum is the same left-to-right chain either way — which is what
// the associativity tests pin down.

// Merger holds the reusable cursor state of k-way merges. The zero value is
// ready to use; after the first call a Merger performs steady-state merges
// without allocating (the allocs/op lock test holds it to zero).
type Merger struct {
	next []int    // per src: index of the next unconsumed chunk
	act  []*Chunk // chunks participating in the current layer
	pos  []int    // per active chunk: cursor into Idx/Val
}

// MergeInto replaces dst with the merge of srcs: every (layer, index)
// coordinate present in any src appears exactly once, carrying the sum of
// the colliding values in src order. Inputs must be in canonical form —
// chunks in strictly ascending layer order, indices strictly ascending
// within a chunk — which is what decoded wire frames and optimizer outputs
// provide; the output is canonical again. Layers whose union is empty emit
// no chunk, matching the encoder's convention for empty diffs. dst must not
// alias any src.
func (m *Merger) MergeInto(dst *Update, srcs []*Update) {
	dst.Chunks = dst.Chunks[:0]
	if cap(m.next) < len(srcs) {
		m.next = make([]int, len(srcs))
		m.act = make([]*Chunk, len(srcs))
		m.pos = make([]int, len(srcs))
	}
	m.next = m.next[:len(srcs)]
	m.act, m.pos = m.act[:len(srcs)], m.pos[:len(srcs)]
	for s := range m.next {
		m.next[s] = 0
	}

	for {
		// The smallest layer any src still has pending. Chunks within a src
		// ascend, so looking at each src's next chunk suffices.
		layer := -1
		for s, u := range srcs {
			if m.next[s] < len(u.Chunks) {
				if l := u.Chunks[m.next[s]].Layer; layer < 0 || l < layer {
					layer = l
				}
			}
		}
		if layer < 0 {
			break
		}

		// Collect this layer's chunks in src order (the summation order).
		nact := 0
		for s, u := range srcs {
			if m.next[s] < len(u.Chunks) && u.Chunks[m.next[s]].Layer == layer {
				m.act[nact] = &u.Chunks[m.next[s]]
				m.pos[nact] = 0
				nact++
				m.next[s]++
			}
		}

		out := dst.NextChunk()
		out.Layer = layer
		out.Idx = out.Idx[:0]
		out.Val = out.Val[:0]

		// K-way union: repeatedly take the smallest head index and fold every
		// source holding it, left to right. A linear scan over the active
		// heads beats a heap for the window sizes the aggregator batches
		// (k ≤ a few dozen) and keeps the loop branch-predictable.
		for {
			min := int32(-1)
			for a := 0; a < nact; a++ {
				c := m.act[a]
				if p := m.pos[a]; p < len(c.Idx) {
					if ix := c.Idx[p]; min < 0 || ix < min {
						min = ix
					}
				}
			}
			if min < 0 {
				break
			}
			var sum float32
			for a := 0; a < nact; a++ {
				c := m.act[a]
				if p := m.pos[a]; p < len(c.Idx) && c.Idx[p] == min {
					sum += c.Val[p]
					m.pos[a] = p + 1
				}
			}
			// A sum that cancels to zero still ships: the coordinate is in
			// the union of the Top-k supports, and dropping it would make the
			// merged frame depend on float cancellation instead of on the
			// supports alone.
			out.Idx = append(out.Idx, min)
			out.Val = append(out.Val, sum)
		}
		if len(out.Idx) == 0 {
			// Every participating chunk was empty: emit no chunk, like the
			// encoder does for empty layer diffs. The popped slot's storage
			// stays pooled in dst.
			dst.Chunks = dst.Chunks[:len(dst.Chunks)-1]
		}
	}
}
