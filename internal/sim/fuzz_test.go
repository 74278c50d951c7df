package sim

// FuzzEventQueue drives random schedule/pop sequences through the event
// queue (run, 4-ary key/slab heap and lanes) and a container/heap oracle
// with the seed engine's exact Less, asserting both dequeue the identical
// (time, seq, idx) order. This is the determinism contract the golden
// digests rely on, checked structurally instead of end-to-end. Each push
// is offered to no lane or to one of a few lanes; random times send some
// lane pushes out of order, which the lane guard must divert. Each event
// carries a payload (idx, derived from seq) that must come back with its
// key, and the slab must never outgrow the queue's peak length:
// interleaved pushes and pops force slot reuse through the free list.
// After every operation the run must be sorted, hold at most runCap keys,
// and sort before the heap's root while the heap is non-empty; the seeds
// from overflowSeeds hold more than runCap keys, so the run overflows to
// the heap and drains to heap-only pops.

import (
	"bytes"
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
	for _, seed := range overflowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := newEventQueue(0, fuzzLanes)
		var o oracleHeap
		var seq uint64
		var peak int
		invariant := func() {
			if len(q.run) > runCap {
				t.Fatalf("run holds %d keys, cap %d", len(q.run), runCap)
			}
			for i, k := range q.run {
				if i > 0 && !k.before(&q.run[i-1]) {
					t.Fatalf("run key %d (%v, %d) does not sort before key %d", i, k.time, k.seq, i-1)
				}
				if len(q.keys) > 0 && !k.before(&q.keys[0]) {
					t.Fatalf("run key (%v, %d) does not sort before the heap root (%v, %d)",
						k.time, k.seq, q.keys[0].time, q.keys[0].seq)
				}
			}
		}
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
			invariant()
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
			invariant()
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

// overflowSeeds are FuzzEventQueue inputs that hold more than runCap keys
// at once, in the fuzz encoding: an even byte b pushes at time (b>>4)/4,
// offered to lane (b>>1)&3 (0 for none), and an odd byte pops. The final
// drain then pops the run empty and the heap alone.
func overflowSeeds() [][]byte {
	const n = 3 * runCap / 2
	var asc, desc, lanes, mixed []byte
	// Late keys with no lane fill the run and overflow to the heap
	// before any lane push.
	lanes = bytes.Repeat([]byte{0xe0}, runCap+8)
	for i := 0; i < n; i++ {
		// Ascending times, no lane: every key joins the run until it
		// overflows; later keys sort after the root and go to the heap.
		asc = append(asc, byte(i*16/n)<<4)
		// Descending times, a pop after every third push: each new key
		// sorts before the run's keys and the heap's root.
		desc = append(desc, byte(15-i*16/n)<<4)
		if i%3 == 2 {
			desc = append(desc, 1)
		}
		// In-order times on all three lanes, with pops: lane fronts
		// enter the run ahead of the heap's root, or the heap behind it,
		// and each popped lane front brings the lane's next key in.
		lanes = append(lanes, byte(i*16/n)<<4|byte(1+i%3)<<1)
		if i%4 == 3 {
			lanes = append(lanes, 1)
		}
	}
	// A fixed pseudo-random mix, seven pushes to one pop on average, so
	// the heap, the run and the lanes all take keys in any order.
	x := uint32(1)
	for i := 0; i < 4*n; i++ {
		x = x*1664525 + 1013904223
		b := byte(x >> 24)
		if b&6 != 0 {
			b &^= 1
		}
		mixed = append(mixed, b)
	}
	return [][]byte{asc, desc, lanes, mixed}
}
