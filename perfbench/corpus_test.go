package main

import (
	"bytes"
	"net/http"
	"testing"

	"lognic/internal/serve"
)

// corpusBytes joins a workload's items into one byte string.
func corpusBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, it := range w.items {
		b.WriteString(it.endpoint)
		b.WriteByte(0)
		b.Write(it.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, again := corpusBytes(t, name, 7), corpusBytes(t, name, 7)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave two different corpora", name)
		}
		for _, other := range []int64{0, 8, 1 << 40} {
			if bytes.Equal(a, corpusBytes(t, name, other)) {
				t.Errorf("%s: seeds 7 and %d gave the same corpus", name, other)
			}
		}
	}
}

func TestCorpusSizesAgainstTheCache(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.hot && 4*len(w.items) > cacheEntries {
			t.Errorf("%s: %d items do not fit the %d-entry cache several times over", name, len(w.items), cacheEntries)
		}
		if !w.hot && len(w.items) <= cacheEntries {
			t.Errorf("%s: %d items fit the %d-entry cache, so cycling them would hit", name, len(w.items), cacheEntries)
		}
	}
}

func TestMixedCorpusServes(t *testing.T) {
	w, err := buildWorkload("mixed-cold", 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{CacheEntries: -1})
	defer srv.Close()
	h := srv.Handler()
	count := map[string]int{}
	for i, it := range w.items {
		count[it.endpoint]++
		if code := serveItem(h, it); code != http.StatusOK {
			t.Fatalf("item %d (%s): status %d", i, it.endpoint, code)
		}
	}
	if count["estimate"] != 3*count["optimize"] || count["estimate"]+count["optimize"] != len(w.items) {
		t.Fatalf("endpoint mix %v, want three estimates per optimize", count)
	}
}
