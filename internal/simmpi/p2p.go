package simmpi

import "fmt"

// Request tracks one nonblocking point-to-point operation.
type Request struct {
	isRecv bool
	src    int // matching source (recv side), may be AnySource
	tag    int // matching tag, may be AnyTag
	done   bool
	msg    *Message // delivered message (recv) once done
}

// Done reports whether the operation has completed.
func (r *Request) Done() bool { return r.done }

// IsRecv reports whether the request is a receive request.
func (r *Request) IsRecv() bool { return r.isRecv }

// Msg returns the received message of a completed receive request.
func (r *Request) Msg() *Message {
	if !r.isRecv || !r.done {
		panic("simmpi: Msg on incomplete or send request")
	}
	return r.msg
}

// matches reports whether a posted receive matches a message envelope.
func (r *Request) matches(m *Message) bool {
	return (r.src == AnySource || r.src == m.Src) && (r.tag == AnyTag || r.tag == m.Tag)
}

// Isend starts a nonblocking send of data to rank dst.  bytes is the wire
// size; data (may be nil) is copied immediately so the caller can reuse
// its buffer.  pb is the measurement layer's piggyback payload.
func (p *Proc) Isend(dst, tag int, data []float64, bytes int, pb uint64) *Request {
	if dst < 0 || dst >= len(p.W.procs) {
		panic(fmt.Sprintf("simmpi: rank %d: Isend to invalid rank %d", p.Rank, dst))
	}
	a := p.Loc.Actor
	a.Compute(p.W.Cfg.SendOverhead)
	p.W.metrics.Messages.Inc()
	p.W.metrics.MessageBytes.Add(uint64(bytes))
	msg := &Message{
		Src: p.Rank, Dst: dst, Tag: tag,
		Bytes: bytes, Piggyback: pb,
	}
	if data != nil {
		msg.Data = append([]float64(nil), data...)
	}
	req := &Request{}
	msg.senderReq = req
	dstProc := p.W.procs[dst]
	srcCore, dstCore := p.Loc.Core, dstProc.Loc.Core
	if bytes <= p.W.Cfg.EagerThreshold {
		// Eager: the send completes locally; the payload arrives at the
		// receiver after the transfer.
		req.done = true
		act := p.W.M.TransferAction(srcCore, dstCore, float64(bytes), p.Loc.Noise)
		p.W.K.Post(act, func() { dstProc.deliver(msg) })
		return req
	}
	// Rendezvous: announce the message now (header-only transfer); the
	// payload moves once the receiver matches, and only then does the
	// send request complete.
	p.W.metrics.Rendezvous.Inc()
	msg.rendezvous = true
	hdr := p.W.M.TransferAction(srcCore, dstCore, 64, p.Loc.Noise)
	p.W.K.Post(hdr, func() {
		dstProc.deliver(msg)
	})
	return req
}

// Send is the blocking send: Isend followed by Wait.  For eager messages
// it returns as soon as the payload is injected; for rendezvous messages
// it blocks until the receiver has matched (the paper's late-receiver
// pattern).
func (p *Proc) Send(dst, tag int, data []float64, bytes int, pb uint64) {
	p.Wait(p.Isend(dst, tag, data, bytes, pb))
}

// Irecv posts a nonblocking receive.
func (p *Proc) Irecv(src, tag int) *Request {
	a := p.Loc.Actor
	a.Compute(p.W.Cfg.RecvOverhead)
	req := &Request{isRecv: true, src: src, tag: tag}
	// Try to match an already-announced message, in arrival order.
	for _, m := range p.mbox {
		if m.consumed || !req.matches(m) {
			continue
		}
		p.match(req, m)
		return req
	}
	p.recvs = append(p.recvs, req)
	return req
}

// Recv is the blocking receive; it returns the delivered message.
func (p *Proc) Recv(src, tag int) *Message {
	req := p.Irecv(src, tag)
	p.Wait(req)
	return req.msg
}

// Wait blocks until the request completes.
func (p *Proc) Wait(r *Request) {
	for !r.done {
		p.cond.Wait(p.Loc.Actor)
	}
}

// Waitall blocks until every request completes.
func (p *Proc) Waitall(rs []*Request) {
	for _, r := range rs {
		p.Wait(r)
	}
}

// Test reports whether the request has completed, without blocking
// (MPI_Test).  Unlike real MPI it does not drive progress: the simulated
// transfers progress in virtual time on their own.
func (p *Proc) Test(r *Request) bool { return r.done }

// Waitany blocks until at least one of the requests completes and returns
// its index (MPI_Waitany).  Panics on an empty slice.
func (p *Proc) Waitany(rs []*Request) int {
	if len(rs) == 0 {
		panic("simmpi: Waitany on empty request list")
	}
	for {
		for i, r := range rs {
			if r.done {
				return i
			}
		}
		p.cond.Wait(p.Loc.Actor)
	}
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

// deliver runs in kernel context when a message envelope (eager payload or
// rendezvous header) reaches the destination rank.
func (p *Proc) deliver(m *Message) {
	p.mbox = append(p.mbox, m)
	// Try to match the oldest compatible posted receive.
	for i, req := range p.recvs {
		if req.matches(m) {
			p.recvs = append(p.recvs[:i], p.recvs[i+1:]...)
			p.match(req, m)
			return
		}
	}
	// No posted receive: an unexpected message.  A blocked Recv will
	// find it in the mailbox; wake the rank so it re-scans.
	p.cond.Broadcast()
}

// match binds a message to a receive request.  For eager messages the
// payload is already here; for rendezvous messages the bulk transfer
// starts now and both sides complete when it finishes.
func (p *Proc) match(req *Request, m *Message) {
	m.consumed = true
	if m.Piggyback != 0 {
		p.W.metrics.PiggybackSyncs.Inc()
	}
	p.removeFromMbox(m)
	if !m.rendezvous {
		req.msg = m
		req.done = true
		p.cond.Broadcast()
		return
	}
	src := p.W.procs[m.Src]
	act := p.W.M.TransferAction(src.Loc.Core, p.Loc.Core, float64(m.Bytes), src.Loc.Noise)
	p.W.K.Post(act, func() {
		req.msg = m
		req.done = true
		if m.senderReq != nil {
			m.senderReq.done = true
		}
		p.cond.Broadcast()
		src.cond.Broadcast()
	})
}

func (p *Proc) removeFromMbox(m *Message) {
	for i, x := range p.mbox {
		if x == m {
			p.mbox = append(p.mbox[:i], p.mbox[i+1:]...)
			return
		}
	}
}
