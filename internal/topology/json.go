package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// jsonVersion is the topology wire-format version. Bump only with a
// decoder that still accepts every older version.
const jsonVersion = 1

type relationJSON struct {
	Links     [][2]int `json:"links"`
	Bandwidth int      `json:"bandwidth"`
}

type topologyJSON struct {
	Version   int            `json:"version"`
	Name      string         `json:"name"`
	P         int            `json:"p"`
	Relations []relationJSON `json:"relations"`
	// Blocks is the optional machine partition of hierarchical fabrics;
	// absent for flat topologies (and in documents written before the
	// field existed, which decode to the same flat reading).
	Blocks []int `json:"blocks,omitempty"`
}

// MarshalJSON renders the topology in the stable v1 wire format: a
// version tag, the node count, and the bandwidth relation as explicit
// [src, dst] link pairs.
func (t *Topology) MarshalJSON() ([]byte, error) {
	out := topologyJSON{Version: jsonVersion, Name: t.Name, P: t.P, Blocks: t.Blocks}
	for _, r := range t.Relations {
		rj := relationJSON{Bandwidth: r.Bandwidth, Links: make([][2]int, 0, len(r.Links))}
		for _, l := range r.Links {
			rj.Links = append(rj.Links, [2]int{int(l.Src), int(l.Dst)})
		}
		out.Relations = append(out.Relations, rj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the v1 wire format and re-validates the result,
// so a hand-edited or corrupted document cannot produce a structurally
// invalid topology. A document past MaxSpecNodes nodes is refused: the
// collective and the encoder size their arrays by P.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var in topologyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != jsonVersion {
		return fmt.Errorf("topology: unsupported JSON version %d (want %d)", in.Version, jsonVersion)
	}
	if in.P > MaxSpecNodes {
		return fmt.Errorf("topology: document describes %d nodes, past the %d-node cap", in.P, MaxSpecNodes)
	}
	dec := &Topology{Name: in.Name, P: in.P, Blocks: in.Blocks}
	for _, rj := range in.Relations {
		r := Relation{Bandwidth: rj.Bandwidth, Links: make([]Link, 0, len(rj.Links))}
		for _, lp := range rj.Links {
			r.Links = append(r.Links, Link{Src: Node(lp[0]), Dst: Node(lp[1])})
		}
		dec.Relations = append(dec.Relations, r)
	}
	if err := dec.Validate(); err != nil {
		return fmt.Errorf("topology: decoded JSON invalid: %w", err)
	}
	// Field by field: a Topology carries its fingerprint memo and is not
	// copied whole.
	t.Name, t.P, t.Relations, t.Blocks = dec.Name, dec.P, dec.Relations, dec.Blocks
	return nil
}

// fingerprint is one memoized Fingerprint: the digest and the node count
// and relation slice it was computed from.
type fingerprint struct {
	p      int
	rels   []Relation
	digest string
}

// Fingerprint returns a canonical, name-independent digest of the
// topology structure: two topologies with the same node count and the
// same bandwidth relation share a fingerprint regardless of their names
// or of relation/link ordering. Engines key their algorithm caches on it.
//
// The digest is computed on the first call and memoized, so later calls
// (every engine cache lookup makes one) cost the same on every fabric
// size. Assigning a new P or Relations slice is noticed and digested
// afresh; editing a relation in place is not, so build a new topology
// instead of changing one in use.
func (t *Topology) Fingerprint() string {
	if m := t.fp.Load(); m != nil && m.p == t.P && sameSlice(m.rels, t.Relations) {
		return m.digest
	}
	m := &fingerprint{p: t.P, rels: t.Relations, digest: t.digest()}
	t.fp.Store(m)
	return m.digest
}

// sameSlice reports whether a and b are one slice: the same length over
// the same backing array.
func sameSlice(a, b []Relation) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// digest hashes the canonical text of the structure: each relation as its
// sorted "src>dst" links and "@bandwidth", the relations sorted and joined
// behind the node count.
func (t *Topology) digest() string {
	rels := make([]string, len(t.Relations))
	var links []string
	for i, r := range t.Relations {
		links = links[:0]
		for _, l := range r.Links {
			links = append(links, strconv.Itoa(int(l.Src))+">"+strconv.Itoa(int(l.Dst)))
		}
		sort.Strings(links)
		rels[i] = strings.Join(links, ",") + "@" + strconv.Itoa(r.Bandwidth)
	}
	sort.Strings(rels)
	sum := sha256.Sum256([]byte("topology/v1|p=" + strconv.Itoa(t.P) + "|" + strings.Join(rels, ";")))
	return hex.EncodeToString(sum[:16])
}
