package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh solver.
// It tolerates comment lines and a missing problem line.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := NewSolver()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	ensure := func(v int) {
		for s.numVars < v {
			s.NewVar()
		}
	}
	var cur []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				if n, err := strconv.Atoi(fields[2]); err == nil {
					ensure(n)
				}
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: bad DIMACS token %q: %w", tok, err)
			}
			if n == 0 {
				s.AddClause(cur...)
				cur = cur[:0]
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			ensure(v)
			cur = append(cur, MkLit(Var(v), n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		s.AddClause(cur...)
	}
	return s, nil
}

// WriteDIMACS writes the current problem clauses (not learnt clauses) in
// DIMACS CNF format.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", s.numVars, s.live-len(s.learnts))
	for r := 1; r < len(s.arena); r += footprint(s.arena[r]) {
		if s.arena[r]&(hdrLearnt|hdrDeleted) != 0 {
			continue
		}
		for _, l := range s.lits(clauseRef(r)) {
			if l.Sign() {
				fmt.Fprintf(bw, "-%d ", l.Var())
			} else {
				fmt.Fprintf(bw, "%d ", l.Var())
			}
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}
