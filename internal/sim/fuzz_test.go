package sim

// FuzzEventQueue drives random schedule/pop sequences through the 4-ary
// key/slab event heap with its lanes and a container/heap oracle with the
// seed engine's exact Less, asserting both dequeue the identical
// (time, seq, idx) order. This is the determinism contract the golden
// digests rely on, checked structurally instead of end-to-end. Each push
// goes to the heap or to one of a few lanes; random times send some lane
// pushes out of order, which the lane guard must divert to the heap. Each
// event carries a payload (idx, derived from seq) that must come back with
// its key, and the slab must never outgrow the queue's peak length:
// interleaved pushes and pops force slot reuse through the free list.

import (
	"container/heap"
	"testing"
)

// oracleEvent mirrors the seed engine's boxed event: just the ordering key.
type oracleEvent struct {
	time float64
	seq  uint64
	idx  int32
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

// fuzzLanes is the number of lanes FuzzEventQueue spreads pushes over.
const fuzzLanes = 3

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 6, 8, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1})           // all-equal times: seq order
	f.Add([]byte{254, 128, 64, 32, 16, 8, 4, 2, 0}) // descending inserts
	f.Add([]byte{})
	// All pushes on lanes, in order and out of order, interleaved.
	f.Add([]byte{0x02, 0x14, 0x26, 0x32, 0x44, 0x12, 0x56, 0x24, 1, 0x62, 1, 0x06, 1, 1})
	// All ties: one time on the heap and every lane.
	f.Add([]byte{0x00, 0x02, 0x04, 0x06, 0x02, 0x04, 0x06, 0x00, 1, 1, 0x02, 1, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := newEventQueue(0, fuzzLanes)
		var o oracleHeap
		var seq uint64
		var peak int
		check := func() {
			if q.empty() {
				t.Fatalf("queue empty, oracle holds %d", o.Len())
			}
			k := q.pop()
			idx := q.slab[k.slot].idx
			q.release(k.slot)
			want := heap.Pop(&o).(*oracleEvent)
			if k.time != want.time || k.seq != want.seq || idx != want.idx {
				t.Fatalf("dequeue order diverged: got (%v, %d, %d), oracle (%v, %d, %d)",
					k.time, k.seq, idx, want.time, want.seq, want.idx)
			}
		}
		for _, b := range data {
			if b&1 == 1 && o.Len() > 0 {
				check()
				continue
			}
			// Coarse times (b>>4 ∈ [0,15]) force heavy ties so the seq
			// tiebreak — the determinism anchor — is exercised hard.
			// Bits 1-2 pick the heap (0) or a lane.
			seq++
			tm := float64(b>>4) / 4
			idx := int32(seq * 7)
			q.push(tm, seq, int32(b>>1)&fuzzLanes).idx = idx
			heap.Push(&o, &oracleEvent{time: tm, seq: seq, idx: idx})
			peak = max(peak, o.Len())
			if len(q.slab) > peak {
				t.Fatalf("slab grew to %d slots, peak queue length %d", len(q.slab), peak)
			}
		}
		for o.Len() > 0 {
			check()
		}
		if !q.empty() || len(q.free) != len(q.slab) {
			t.Fatalf("queue not drained: %d of %d slots taken", len(q.slab)-len(q.free), len(q.slab))
		}
		for i, l := range q.lanes {
			if l.n != 0 {
				t.Fatalf("lane %d holds %d keys after drain", i+1, l.n)
			}
		}
	})
}
