package collective

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestUnmarshalRejectsForgedShape checks that the claimed C and P of a
// document cannot size an allocation its bytes do not back: both forged
// documents below would need terabytes if the registry relations or the
// parsed rows were built before the shape check.
func TestUnmarshalRejectsForgedShape(t *testing.T) {
	for name, doc := range map[string]string{
		"forged C": `{"version":1,"kind":"Allgather","p":2,"c":1099511627776,"root":0,"g":2,"pre":["10","01"],"post":["11","11"]}`,
		"forged P": `{"version":1,"kind":"Broadcast","p":1099511627776,"c":1,"root":0,"g":1,"pre":["1"],"post":["1"]}`,
	} {
		var s Spec
		err := json.Unmarshal([]byte(doc), &s)
		if err == nil || !strings.Contains(err.Error(), "collective:") {
			t.Errorf("%s: err = %v, want a shape error", name, err)
		}
	}
	var s Spec
	ok := `{"version":1,"kind":"Allgather","p":2,"c":1,"root":0,"g":2,"pre":["10","01"],"post":["11","11"]}`
	if err := json.Unmarshal([]byte(ok), &s); err != nil || s.G != 2 {
		t.Fatalf("well-formed document: %v (G=%d)", err, s.G)
	}
}

// TestFingerprintMemo pins the memoized Fingerprint: it equals the digest
// computed afresh, concurrent first calls agree (run it under -race), and
// a spec whose fields or relation slices are replaced — by assignment or
// by decoding another document into it — is digested again instead of
// answering from the memo.
func TestFingerprintMemo(t *testing.T) {
	s, err := New(Allgather, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := s.digest()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("call %d: Fingerprint %s, digest %s", i, fp, want)
		}
	}

	b, err := New(Broadcast, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{s.Fingerprint(): true}
	for _, edit := range []func(){
		func() { s.Root = 3 },
		func() { s.Pre = AllRel(s.G, s.P) },
		func() { s.Post = TransposeRel(s.G, s.P) },
		func() {
			if err := json.Unmarshal(doc, s); err != nil {
				t.Fatal(err)
			}
		},
	} {
		edit()
		fp := s.Fingerprint()
		if fp != s.digest() || seen[fp] {
			t.Fatalf("after an edit: Fingerprint %s, digest %s, seen before %v", fp, s.digest(), seen[fp])
		}
		seen[fp] = true
	}
	if s.Fingerprint() != b.Fingerprint() {
		t.Fatalf("decoded spec fingerprints %s, its source %s", s.Fingerprint(), b.Fingerprint())
	}
}
