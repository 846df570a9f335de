package topology

import (
	"sync"
	"testing"
)

// TestFingerprintMemo pins the memoized Fingerprint: it equals the digest
// computed afresh, concurrent first calls agree (run it under -race), and
// a topology whose relation slice or node count is replaced is digested
// again instead of answering from the memo.
func TestFingerprintMemo(t *testing.T) {
	tp := Torus2D(4, 4)
	want := tp.digest()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tp.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("call %d: Fingerprint %s, digest %s", i, fp, want)
		}
	}

	r := Ring(6)
	seen := map[string]bool{r.Fingerprint(): true}
	for _, edit := range []func(){
		func() { r.Relations = append(r.Relations, Relation{Links: []Link{{Src: 0, Dst: 2}}, Bandwidth: 1}) },
		func() { r.Relations = BidirRing(6).Relations },
		func() { r.P = 7 },
	} {
		edit()
		fp := r.Fingerprint()
		if fp != r.digest() || seen[fp] {
			t.Fatalf("after an edit: Fingerprint %s, digest %s, seen before %v", fp, r.digest(), seen[fp])
		}
		seen[fp] = true
	}
}
