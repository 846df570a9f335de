package collective

import (
	"encoding/json"
	"strings"
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
