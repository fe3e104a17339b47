package vtime

// finishHeap is a binary min-heap of actions keyed by (finishAt, seq).
// The seq tiebreak makes completion order deterministic when several
// actions finish at the same virtual time.
type finishHeap struct {
	items []*Action
}

func (h *finishHeap) less(a, b *Action) bool {
	if a.finishAt != b.finishAt {
		return a.finishAt < b.finishAt
	}
	return a.seq < b.seq
}

func (h *finishHeap) Len() int { return len(h.items) }

func (h *finishHeap) push(a *Action) {
	a.heapIndex = len(h.items)
	h.items = append(h.items, a)
	h.up(a.heapIndex)
}

func (h *finishHeap) peek() *Action {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *finishHeap) pop() *Action {
	a := h.items[0]
	h.remove(0)
	return a
}

// fix restores heap order after a's finishAt changed.
func (h *finishHeap) fix(a *Action) {
	i := a.heapIndex
	if !h.down(i) {
		h.up(i)
	}
}

func (h *finishHeap) remove(i int) {
	n := len(h.items) - 1
	h.items[i] = h.items[n]
	h.items[i].heapIndex = i
	h.items[n] = nil
	h.items = h.items[:n]
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h *finishHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *finishHeap) down(i int) bool {
	moved := false
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			break
		}
		h.swap(i, smallest)
		i = smallest
		moved = true
	}
	return moved
}

func (h *finishHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIndex = i
	h.items[j].heapIndex = j
}
