package simmpi

// Additional collective operations beyond the core set the paper's
// benchmarks need: rooted reductions and gathers, scatters, prefix scans,
// and the combined send-receive.  All share the synchronising slot
// machinery of coll.go.

// Additional collective kinds.
const (
	CollReduce  CollKind = "MPI_Reduce"
	CollGather  CollKind = "MPI_Gather"
	CollScatter CollKind = "MPI_Scatter"
	CollScan    CollKind = "MPI_Scan"
)

// Reduce combines data element-wise with op; only root receives the
// result (others get nil).
func (c *Comm) Reduce(p *Proc, root int, data []float64, op Op, pb uint64) ([]float64, uint64) {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollReduce)
	if s.reduce == nil {
		s.reduce = append([]float64(nil), data...)
	} else {
		if len(s.reduce) != len(data) {
			panic("simmpi: Reduce length mismatch across ranks")
		}
		for i, v := range data {
			switch op {
			case OpSum:
				s.reduce[i] += v
			case OpMax:
				if v > s.reduce[i] {
					s.reduce[i] = v
				}
			case OpMin:
				if v < s.reduce[i] {
					s.reduce[i] = v
				}
			}
		}
	}
	s.bytes += float64(8 * len(data))
	maxPB := c.finish(p, s, pb)
	if p.Rank == root {
		return append([]float64(nil), s.reduce...), maxPB
	}
	return nil, maxPB
}

// Gather concatenates contributions at root; non-root ranks get nil.
func (c *Comm) Gather(p *Proc, root int, data []float64, pb uint64) ([][]float64, uint64) {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollGather)
	if s.gather == nil {
		s.gather = make([][]float64, len(c.ranks))
	}
	s.gather[c.indexOf[p.Rank]] = append([]float64(nil), data...)
	s.bytes += float64(8 * len(data))
	maxPB := c.finish(p, s, pb)
	if p.Rank != root {
		return nil, maxPB
	}
	out := make([][]float64, len(c.ranks))
	for i, d := range s.gather {
		out[i] = append([]float64(nil), d...)
	}
	return out, maxPB
}

// Scatter distributes root's per-rank slices; rank i receives data[i].
// Non-root callers pass nil data.
func (c *Comm) Scatter(p *Proc, root int, data [][]float64, pb uint64) ([]float64, uint64) {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollScatter)
	if p.Rank == root {
		if len(data) != len(c.ranks) {
			panic("simmpi: Scatter needs one slice per rank")
		}
		s.gather = make([][]float64, len(c.ranks))
		for i, d := range data {
			s.gather[i] = append([]float64(nil), d...)
			s.bytes += float64(8 * len(d))
		}
	}
	maxPB := c.finish(p, s, pb)
	return append([]float64(nil), s.gather[c.indexOf[p.Rank]]...), maxPB
}

// Scan computes an inclusive prefix reduction: rank i receives the
// combination of the contributions of communicator ranks 0..i.
func (c *Comm) Scan(p *Proc, data []float64, op Op, pb uint64) ([]float64, uint64) {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollScan)
	if s.gather == nil {
		s.gather = make([][]float64, len(c.ranks))
	}
	s.gather[c.indexOf[p.Rank]] = append([]float64(nil), data...)
	s.bytes += float64(8 * len(data))
	maxPB := c.finish(p, s, pb)
	out := make([]float64, len(data))
	copy(out, s.gather[0])
	for i := 1; i <= c.indexOf[p.Rank]; i++ {
		for j, v := range s.gather[i] {
			switch op {
			case OpSum:
				out[j] += v
			case OpMax:
				if v > out[j] {
					out[j] = v
				}
			case OpMin:
				if v < out[j] {
					out[j] = v
				}
			}
		}
	}
	return out, maxPB
}

// Sendrecv posts the receive, starts the send, and completes both — the
// deadlock-free paired exchange.
func (p *Proc) Sendrecv(dst, sendTag int, data []float64, bytes int,
	src, recvTag int, pb uint64) (*Message, error) {
	rreq := p.Irecv(src, recvTag)
	sreq := p.Isend(dst, sendTag, data, bytes, pb)
	p.Wait(rreq)
	p.Wait(sreq)
	return rreq.Msg(), nil
}
