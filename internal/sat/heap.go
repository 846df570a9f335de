package sat

// activityHeap is a binary max-heap of variables ordered by VSIDS activity.
// It maintains an index map so membership tests and targeted updates are
// O(1)/O(log n). The activities live here, beside the heap, so a sift
// compares them without a second pointer hop. The sift code decides how
// equal activities order and must not change: branching ties follow it.
type activityHeap struct {
	heap     []Var
	indices  []int32   // var -> heap position, -1 if absent
	activity []float64 // var -> VSIDS activity
}

// addVar extends the heap's tables by one variable (activity 0, absent).
func (h *activityHeap) addVar() {
	h.indices = append(h.indices, -1)
	h.activity = append(h.activity, 0)
}

// clear empties the heap; activities are untouched.
func (h *activityHeap) clear() {
	h.heap = h.heap[:0]
	for i := range h.indices {
		h.indices[i] = -1
	}
}

func (h *activityHeap) less(a, b Var) bool {
	return h.activity[a] > h.activity[b]
}

func (h *activityHeap) contains(v Var) bool { return h.indices[v] >= 0 }

func (h *activityHeap) empty() bool { return len(h.heap) == 0 }

func (h *activityHeap) push(v Var) {
	if h.contains(v) {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.siftUp(len(h.heap) - 1)
}

func (h *activityHeap) pop() Var {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[top] = -1
	if len(h.heap) > 0 {
		h.siftDown(0)
	}
	return top
}

// update restores the heap invariant after v's activity increased.
func (h *activityHeap) update(v Var) {
	if h.contains(v) {
		h.siftUp(int(h.indices[v]))
	}
}

func (h *activityHeap) siftUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

func (h *activityHeap) siftDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.less(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.indices[h.heap[i]] = int32(i)
		i = best
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}
