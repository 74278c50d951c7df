package serve

import (
	"fmt"
	"testing"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2, 0)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	// Touch "a" so "b" becomes the eviction candidate.
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for k, want := range map[string]string{"a": "A", "c": "C"} {
		if v, ok := c.Get(k); !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v", k, v, ok)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := newLRU(4, 0)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("v2"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("k"); string(v) != "v2" {
		t.Fatalf("Get(k) = %q, want v2", v)
	}
}

// The byte budget must evict in LRU order, independent of the entry cap.
// Accounted bytes are key + body per entry.
func TestLRUByteBudgetEvicts(t *testing.T) {
	c := newLRU(1000, 100)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 30)) // 4×(2+30) = 128 > 100
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 (least recently used) should have been evicted by the byte budget")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d should have survived", i)
		}
	}
	if got := c.Bytes(); got != 96 {
		t.Fatalf("Bytes = %d, want 96", got)
	}

	// Touch k1 so k2 is now oldest; a 23-byte insert must evict exactly k2
	// (96+23=119 → evict k2's 32 → 87).
	c.Get("k1")
	c.Put("big", make([]byte, 20))
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	if got := c.Bytes(); got != 87 {
		t.Fatalf("Bytes = %d, want 87", got)
	}
}

// Replacing an entry's body must re-account its bytes, both shrinking and
// growing — the original count-only cache silently leaked this delta.
func TestLRUReplaceAccounting(t *testing.T) {
	c := newLRU(10, 1000)
	c.Put("a", make([]byte, 100)) // 1-byte keys: entry = key + body
	c.Put("b", make([]byte, 200))
	if got := c.Bytes(); got != 302 {
		t.Fatalf("Bytes = %d, want 302", got)
	}
	c.Put("a", make([]byte, 500)) // grow 100 → 500
	if got := c.Bytes(); got != 702 {
		t.Fatalf("Bytes after grow = %d, want 702", got)
	}
	c.Put("b", make([]byte, 50)) // shrink 200 → 50
	if got := c.Bytes(); got != 552 {
		t.Fatalf("Bytes after shrink = %d, want 552", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// A replacement that grows past the budget must evict the other entry,
	// not the one being replaced.
	c.Put("a", make([]byte, 990))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted by a's growth")
	}
	if got := c.Bytes(); got != 991 {
		t.Fatalf("Bytes = %d, want 991", got)
	}
}

// A single body larger than the whole byte budget must be rejected, not
// cached (it would evict everything for an entry that can't amortize),
// and an oversized replacement must also drop the stale entry.
func TestLRUOversizedRejected(t *testing.T) {
	c := newLRU(10, 100)
	if c.Put("huge", make([]byte, 101)) {
		t.Fatal("oversized Put should report not-stored")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("cache should be empty, got Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	if !c.Put("k", make([]byte, 60)) {
		t.Fatal("in-budget Put should store")
	}
	if c.Put("k", make([]byte, 200)) {
		t.Fatal("oversized replacement should report not-stored")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale entry must not survive an oversized replacement")
	}
	if c.Bytes() != 0 {
		t.Fatalf("Bytes = %d, want 0", c.Bytes())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRU(64, 1<<20)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				c.Put(k, []byte(k))
				if v, ok := c.Get(k); ok && string(v) != k {
					panic("corrupted entry")
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("Len = %d exceeds capacity", n)
	}
}

// The L1 exact-body index must serve byte-identical repeats without
// parsing, while a semantically equal but textually different request
// still hits through the canonical tier — and both replay the same bytes.
func TestL1FastPathAndCanonicalFallthrough(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodyA := estimateBody(sampleSpec)
	respA, coldBody := post(t, ts.Client(), ts.URL+"/v1/estimate", bodyA)
	if respA.StatusCode != 200 || respA.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status %d cache %q", respA.StatusCode, respA.Header.Get("X-Cache"))
	}

	l1Hits := func() float64 { return metric(t, s, "lognic_serve_cache_l1_hits_total") }
	l1Before := l1Hits()
	resp, body := post(t, ts.Client(), ts.URL+"/v1/estimate", bodyA)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("byte-identical repeat should hit")
	}
	if l1Hits() != l1Before+1 {
		t.Fatalf("exact repeat should hit the L1 index: %v -> %v", l1Before, l1Hits())
	}
	if string(body) != string(coldBody) {
		t.Fatal("L1 hit bytes differ from cold response")
	}

	// Same spec, different whitespace: misses the L1, hits the canonical
	// tier, and that hit back-fills the L1 for the new byte shape.
	bodyB := `{ "spec":   ` + sampleSpec + ` }`
	resp, body = post(t, ts.Client(), ts.URL+"/v1/estimate", bodyB)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("semantically equal request should hit the canonical tier")
	}
	if l1Hits() != l1Before+1 {
		t.Fatal("reshaped body must not be an L1 hit on first sight")
	}
	if string(body) != string(coldBody) {
		t.Fatal("canonical hit bytes differ from cold response")
	}
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/estimate", bodyB)
	if resp.Header.Get("X-Cache") != "hit" || l1Hits() != l1Before+2 {
		t.Fatalf("repeat of the reshaped body should now hit the L1 (hits=%v)", l1Hits())
	}
}
