package sim

// FuzzEventQueue drives random schedule/pop sequences through the 4-ary
// key/slab event heap and a container/heap oracle with the seed engine's
// exact Less, asserting both dequeue the identical (time, seq) order. This
// is the determinism contract the golden digests rely on, checked
// structurally instead of end-to-end. Each event carries a payload
// (idx = seq) that must come back with its key, and the slab must never
// outgrow the queue's peak length: interleaved pushes and pops force slot
// reuse through the free list.

import (
	"container/heap"
	"testing"
)

// oracleEvent mirrors the seed engine's boxed event: just the ordering key.
type oracleEvent struct {
	time float64
	seq  uint64
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 6, 8, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1})           // all-equal times: seq order
	f.Add([]byte{254, 128, 64, 32, 16, 8, 4, 2, 0}) // descending inserts
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		var o oracleHeap
		var seq uint64
		var peak int
		check := func() {
			var got event
			q.pop(&got)
			want := heap.Pop(&o).(*oracleEvent)
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("dequeue order diverged: got (%v, %d), oracle (%v, %d)",
					got.time, got.seq, want.time, want.seq)
			}
			if uint64(got.idx) != got.seq {
				t.Fatalf("payload idx %d popped with key seq %d", got.idx, got.seq)
			}
		}
		for _, b := range data {
			if b&1 == 1 && o.Len() > 0 {
				check()
				continue
			}
			// Coarse times (b>>4 ∈ [0,15]) force heavy ties so the seq
			// tiebreak — the determinism anchor — is exercised hard.
			seq++
			tm := float64(b>>4) / 4
			q.push(&event{time: tm, seq: seq, idx: int32(seq)})
			heap.Push(&o, &oracleEvent{time: tm, seq: seq})
			peak = max(peak, q.len())
			if len(q.slab) > peak {
				t.Fatalf("slab grew to %d slots, peak queue length %d", len(q.slab), peak)
			}
		}
		if q.len() != o.Len() {
			t.Fatalf("length diverged: %d vs %d", q.len(), o.Len())
		}
		for o.Len() > 0 {
			check()
		}
		if q.len() != 0 {
			t.Fatalf("queue not drained: %d left", q.len())
		}
	})
}
