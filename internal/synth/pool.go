package synth

import (
	"strconv"
	"sync"

	"repro/internal/collective"
	"repro/internal/topology"
)

// SessionPool keeps what outlives one sweep: the per-topology mega-base
// sessions (mega.go) — and the clauses they have learned — keyed by
// topology, root and lowering-relevant options, least recently used
// evicted past megaPoolCap; and the Stage-0 routing templates every
// encode of a topology shares. An Engine owns one pool so a base adopted
// by one sweep serves the next from its first probe; a sweep without an
// engine uses a transient pool. Pools are safe for concurrent use; the
// sessions serialize concurrent probes internally.
type SessionPool struct {
	templates *TemplateCache

	mu        sync.Mutex
	closed    bool
	megas     map[string]*MegaSession
	megaOrder []string // LRU order, oldest first
}

// NewSessionPool builds an empty pool.
func NewSessionPool() *SessionPool {
	return &SessionPool{templates: NewTemplateCache(), megas: map[string]*MegaSession{}}
}

// Templates exposes the pool's shared Stage-0 template cache, so sweep
// setup (lower-bound computation) can reuse the cached BFS distance
// matrix instead of re-walking the topology per sweep.
func (p *SessionPool) Templates() *TemplateCache {
	if p == nil {
		return nil
	}
	return p.templates
}

// megaKey is the pool identity of a per-topology mega session under
// the lowering-relevant options a session can be built with at all (Mega
// declines proof recording). Node symmetry is not among them: the base
// never takes it (see mega.go).
func megaKey(topo *topology.Topology, root topology.Node, opts Options) string {
	return topo.Fingerprint() + "|r" + strconv.Itoa(int(root)) +
		"|y" + strconv.FormatBool(!opts.NoSymmetryBreak)
}

// Mega returns the pool's mega-base session for the topology if one
// exists and covers a sweep over kinds (nil = every non-combining kind)
// bounded by (needChunks, needSteps, needK). With create set, a missing
// or under-sized session is (re)built sized to the union of the old and
// requested bounds and kind scopes; without it the call is a warm lookup
// only. Returns nil when the configuration cannot host a mega base, or
// when the chunk universe would be too large to pay off — callers stay
// on one-shot solving.
func (p *SessionPool) Mega(topo *topology.Topology, root topology.Node, opts Options, kinds []collective.Kind, needChunks, needSteps, needK int, create bool) *MegaSession {
	if topo == nil || needChunks < 1 || needSteps < 1 || needK < 0 {
		return nil
	}
	if opts.ProveUnsat {
		// Proof recording wants a standalone refutation of one probe's
		// formula, which an assumption solve on a shared base cannot give.
		return nil
	}
	key := megaKey(topo, root, opts)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if m, ok := p.megas[key]; ok {
		if m.Covers(kinds, needChunks, needSteps, needK) {
			p.megaTouch(key)
			p.mu.Unlock()
			return m
		}
		if !create {
			p.mu.Unlock()
			return nil
		}
		// Replace with a session covering both the old and new bounds and
		// kind scopes so existing warm users stay mapped after their next
		// lookup.
		if m.maxChunks > needChunks {
			needChunks = m.maxChunks
		}
		if m.horizon > needSteps {
			needSteps = m.horizon
		}
		if m.k > needK {
			needK = m.k
		}
		kinds = mergeMegaKinds(m.kinds, kinds)
	} else if !create {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	// Build outside the lock; a racing creator may win — the loser closes.
	m := NewMegaSession(topo, root, opts, kinds, needChunks, needSteps, needK)
	if m == nil {
		return nil
	}
	m.setTemplateCache(p.templates)
	var evicted []*MegaSession
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		m.Close()
		return nil
	}
	if have, ok := p.megas[key]; ok && have.Covers(kinds, needChunks, needSteps, needK) {
		p.megaTouch(key)
		p.mu.Unlock()
		m.Close()
		return have
	}
	if have, ok := p.megas[key]; ok {
		evicted = append(evicted, have)
	} else {
		p.megaOrder = append(p.megaOrder, key)
	}
	p.megas[key] = m
	p.megaTouch(key)
	for len(p.megas) > megaPoolCap {
		oldest := p.megaOrder[0]
		p.megaOrder = p.megaOrder[1:]
		evicted = append(evicted, p.megas[oldest])
		delete(p.megas, oldest)
	}
	p.mu.Unlock()
	for _, e := range evicted {
		e.Close() // closed mega sessions degrade to one-shot for any view
	}
	return m
}

// megaTouch moves key to the most-recently-used end; caller holds p.mu.
func (p *SessionPool) megaTouch(key string) {
	for i, k := range p.megaOrder {
		if k == key {
			p.megaOrder = append(append(p.megaOrder[:i:i], p.megaOrder[i+1:]...), key)
			return
		}
	}
}

// MegaLen returns the number of live mega-base sessions.
func (p *SessionPool) MegaLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.megas)
}

// Close releases every pooled session; their views degrade to one-shot
// solving and the pool declines further lookups.
func (p *SessionPool) Close() error {
	p.mu.Lock()
	megas := p.megas
	p.closed = true
	p.megas = nil
	p.megaOrder = nil
	p.mu.Unlock()
	for _, m := range megas {
		m.Close()
	}
	return nil
}
