// Stable, versioned JSON serialization for the public nouns: Topology,
// Collective, Algorithm, Pareto frontiers, Request and Result, plus the
// persisted algorithm library an Engine can save and reload. Every
// document is an envelope {"format": "sccl.TYPE/v1", "payload": ...};
// every decode re-validates, so a corrupted or hand-edited document
// fails loudly instead of yielding an invalid schedule.
package sccl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Document format tags. Bump a tag's version only together with a
// decoder that still accepts older payloads.
const (
	FormatTopology      = "sccl.topology/v1"
	FormatCollective    = "sccl.collective/v1"
	FormatAlgorithm     = "sccl.algorithm/v1"
	FormatFrontier      = "sccl.frontier/v1"
	FormatRequest       = "sccl.request/v1"
	FormatResult        = "sccl.result/v1"
	FormatLibrary       = "sccl.library/v1"
	FormatParetoRequest = "sccl.pareto-request/v1"
	FormatLibraryEntry  = "sccl.library-entry/v1"
)

type envelope struct {
	Format  string          `json:"format"`
	Payload json.RawMessage `json:"payload"`
}

func seal(format string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Format: format, Payload: payload})
}

func open(format string, data []byte) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Format != format {
		return nil, fmt.Errorf("sccl: document format %q, want %q", env.Format, format)
	}
	return env.Payload, nil
}

// EncodeTopology renders a topology as a stable, versioned JSON
// document.
func EncodeTopology(t *Topology) ([]byte, error) { return seal(FormatTopology, t) }

// DecodeTopology parses and re-validates a topology document.
func DecodeTopology(data []byte) (*Topology, error) {
	payload, err := open(FormatTopology, data)
	if err != nil {
		return nil, err
	}
	t := new(Topology)
	if err := json.Unmarshal(payload, t); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeCollective renders a collective spec as a stable, versioned JSON
// document (custom collectives included).
func EncodeCollective(c *Collective) ([]byte, error) { return seal(FormatCollective, c) }

// DecodeCollective parses and re-validates a collective document.
func DecodeCollective(data []byte) (*Collective, error) {
	payload, err := open(FormatCollective, data)
	if err != nil {
		return nil, err
	}
	c := new(Collective)
	if err := json.Unmarshal(payload, c); err != nil {
		return nil, err
	}
	return c, nil
}

// EncodeAlgorithm renders an algorithm as a stable, versioned,
// self-contained JSON document: the collective spec and topology are
// embedded, so the decoded algorithm can be validated, simulated and
// executed with no out-of-band context.
func EncodeAlgorithm(a *Algorithm) ([]byte, error) { return seal(FormatAlgorithm, a) }

// DecodeAlgorithm parses an algorithm document and re-validates the
// schedule against its embedded collective and topology.
func DecodeAlgorithm(data []byte) (*Algorithm, error) {
	payload, err := open(FormatAlgorithm, data)
	if err != nil {
		return nil, err
	}
	a := new(Algorithm)
	if err := json.Unmarshal(payload, a); err != nil {
		return nil, err
	}
	return a, nil
}

// EncodeFrontier renders a Pareto frontier as a stable, versioned JSON
// document. Note that each point's SynthesisTime is wall clock; zero it
// first when byte-comparing frontiers from different runs.
func EncodeFrontier(points []ParetoPoint) ([]byte, error) { return seal(FormatFrontier, points) }

// DecodeFrontier parses a frontier document, re-validating every
// embedded algorithm.
func DecodeFrontier(data []byte) ([]ParetoPoint, error) {
	payload, err := open(FormatFrontier, data)
	if err != nil {
		return nil, err
	}
	var points []ParetoPoint
	if err := json.Unmarshal(payload, &points); err != nil {
		return nil, err
	}
	for i, p := range points {
		if p.Algorithm == nil {
			return nil, fmt.Errorf("sccl: frontier point %d has no algorithm", i)
		}
	}
	return points, nil
}

// EncodeRequest renders a request as a stable, versioned JSON document
// (solver Options are engine-local and omitted).
func EncodeRequest(r Request) ([]byte, error) { return seal(FormatRequest, r) }

// DecodeRequest parses and re-validates a request document.
func DecodeRequest(data []byte) (Request, error) {
	var r Request
	payload, err := open(FormatRequest, data)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(payload, &r)
	return r, err
}

// EncodeResult renders a result as a stable, versioned JSON document.
func EncodeResult(r Result) ([]byte, error) { return seal(FormatResult, r) }

// DecodeResult parses a result document, re-validating the embedded
// algorithm if present.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	payload, err := open(FormatResult, data)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(payload, &r)
	return r, err
}

// EncodeParetoRequest renders a sweep request as a stable, versioned
// JSON document — the wire format of the serve daemon's /v1/pareto
// endpoint. Engine-local fields (Progress, Options, NoSessions) are
// omitted.
func EncodeParetoRequest(r ParetoRequest) ([]byte, error) { return seal(FormatParetoRequest, r) }

// DecodeParetoRequest parses and re-validates a sweep request document.
func DecodeParetoRequest(data []byte) (ParetoRequest, error) {
	var r ParetoRequest
	payload, err := open(FormatParetoRequest, data)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(payload, &r)
	return r, err
}

// LibraryEntry is one persisted synthesis outcome of an engine's
// algorithm cache: the canonical request fingerprint, a human-readable
// summary of the request, and the algorithm itself (absent for Unsat
// entries, which are worth persisting too — they spare the solver a
// provably fruitless search).
type LibraryEntry struct {
	Fingerprint string     `json:"fingerprint"`
	Kind        string     `json:"kind"`
	Topology    string     `json:"topology"`
	Root        int        `json:"root"`
	Budget      Budget     `json:"budget"`
	Status      string     `json:"status"`
	Algorithm   *Algorithm `json:"algorithm,omitempty"`
}

type libraryJSON struct {
	Format  string         `json:"format"`
	Entries []LibraryEntry `json:"entries"`
}

// DecodeLibrary parses a library document without an engine, for
// inspection; every embedded algorithm re-validates during decode.
func DecodeLibrary(data []byte) ([]LibraryEntry, error) {
	entries, _, err := parseLibrary(data)
	return entries, err
}

// parseLibrary decodes and validates a library document, returning the
// parsed per-entry statuses alongside the entries so loaders need not
// re-parse them.
func parseLibrary(data []byte) ([]LibraryEntry, []Status, error) {
	var in libraryJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, nil, err
	}
	if in.Format != FormatLibrary {
		return nil, nil, fmt.Errorf("sccl: library format %q, want %q", in.Format, FormatLibrary)
	}
	statuses := make([]Status, len(in.Entries))
	for i, ent := range in.Entries {
		status, err := validateLibraryEntry(ent)
		if err != nil {
			return nil, nil, fmt.Errorf("sccl: library entry %d %w", i, err)
		}
		statuses[i] = status
	}
	return in.Entries, statuses, nil
}

// validateLibraryEntry checks the status/algorithm coherence every
// persisted entry must satisfy. Only settled verdicts belong in a
// library: an Unknown entry would be served as a cache hit forever,
// which the engine itself never allows.
func validateLibraryEntry(ent LibraryEntry) (Status, error) {
	status, err := statusFromString(ent.Status)
	if err != nil {
		return Unknown, err
	}
	switch status {
	case Sat:
		if ent.Algorithm == nil {
			return Unknown, errors.New("is SAT but has no algorithm")
		}
	case Unsat:
		if ent.Algorithm != nil {
			return Unknown, errors.New("is UNSAT but carries an algorithm")
		}
	default:
		return Unknown, fmt.Errorf("has status %q (only SAT and UNSAT persist)", ent.Status)
	}
	return status, nil
}

// EncodeLibraryEntry renders one cached synthesis outcome as a stable,
// versioned JSON document — the response format of the serve daemon's
// /v1/algorithms/{fingerprint} endpoint.
func EncodeLibraryEntry(ent LibraryEntry) ([]byte, error) { return seal(FormatLibraryEntry, ent) }

// DecodeLibraryEntry parses a library-entry document, re-validating the
// embedded algorithm and the status/algorithm coherence.
func DecodeLibraryEntry(data []byte) (LibraryEntry, error) {
	var ent LibraryEntry
	payload, err := open(FormatLibraryEntry, data)
	if err != nil {
		return ent, err
	}
	if err := json.Unmarshal(payload, &ent); err != nil {
		return ent, err
	}
	if _, err := validateLibraryEntry(ent); err != nil {
		return ent, fmt.Errorf("sccl: library entry %w", err)
	}
	return ent, nil
}

// SaveLibrary writes the engine's algorithm cache as a versioned JSON
// library, sorted by fingerprint for reproducible files. A saved library
// can be reloaded into any engine with the same lowering options
// (encoding, symmetry, quotient) and served without re-solving.
func (e *Engine) SaveLibrary(w io.Writer) error {
	e.mu.Lock()
	entries := make([]LibraryEntry, 0, len(e.algs))
	for fp, ent := range e.algs {
		entries = append(entries, LibraryEntry{
			Fingerprint: fp,
			Kind:        ent.kind,
			Topology:    ent.topoName,
			Root:        ent.root,
			Budget:      ent.budget,
			Status:      ent.status.String(),
			Algorithm:   ent.alg,
		})
	}
	e.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Fingerprint < entries[j].Fingerprint })
	data, err := json.MarshalIndent(libraryJSON{Format: FormatLibrary, Entries: entries}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// LoadLibrary merges a saved library into the engine's algorithm cache,
// re-validating every algorithm during decode, and returns the number of
// entries loaded. Loaded entries serve later requests with the same
// canonical fingerprint as cache hits.
func (e *Engine) LoadLibrary(r io.Reader) (int, error) {
	if e.cacheOff {
		return 0, errors.New("sccl: engine cache is disabled; cannot load a library")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	entries, statuses, err := parseLibrary(data)
	if err != nil {
		return 0, err
	}
	for i, ent := range entries {
		e.storeAlg(ent.Fingerprint, &cacheEntry{
			status: statuses[i], alg: ent.Algorithm,
			kind: ent.Kind, topoName: ent.Topology, root: ent.Root, budget: ent.Budget,
		})
	}
	return len(entries), nil
}
