// Command sccl is the command-line front end to the SCCL synthesis
// engine: it synthesizes collective algorithms for a topology, explores
// Pareto frontiers, prints lower bounds, simulates performance, executes
// algorithms on in-memory buffers, emits CUDA or SMT-LIB2 artifacts, and
// manages persisted algorithm libraries.
//
// Every command drives a sccl.Engine; -library FILE warms the engine's
// algorithm cache from a saved library before solving and writes the
// updated cache back afterwards, so repeated invocations are served
// without re-solving.
//
// Usage:
//
//	sccl synthesize -topology dgx1 -collective Allgather -c 6 -s 3 -r 7
//	sccl pareto     -topology dgx1 -collective Allgather -k 2 -workers 4 -stats
//	sccl bounds     -topology amd  -collective Allreduce
//	sccl simulate   -topology dgx1 -collective Allgather -c 6 -s 3 -r 7 -bytes 1048576
//	sccl cuda       -topology dgx1 -collective Allgather -c 1 -s 2 -r 2 -lowering fused-push
//	sccl smtlib     -topology dgx1 -collective Allgather -c 1 -s 2 -r 2
//	sccl execute    -topology dgx1 -collective Allreduce -c 8 -s 2 -r 2
//	sccl library save -out lib.json -topology ring:4 -collective Allgather -c 1 -s 3 -r 3
//	sccl library show -in lib.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	sccl "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "synthesize":
		err = cmdSynthesize(args)
	case "pareto":
		err = cmdPareto(args)
	case "bounds":
		err = cmdBounds(args)
	case "simulate":
		err = cmdSimulate(args)
	case "cuda":
		err = cmdCUDA(args)
	case "smtlib":
		err = cmdSMTLIB(args)
	case "execute":
		err = cmdExecute(args)
	case "xml":
		err = cmdXML(args)
	case "trace":
		err = cmdTrace(args)
	case "library":
		err = cmdLibrary(args)
	case "serve":
		err = cmdServe(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sccl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sccl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `sccl <command> [flags]

commands:
  synthesize  synthesize one algorithm for an exact (C,S,R) budget
  pareto      run the Pareto-Synthesize procedure (paper Algorithm 1);
              -stats prints the sweep's and the engine's counters as
              one JSON object {"sweep": ..., "engine": ...},
              -no-sessions disables incremental sessions (and with them
              unsat-core pruning), -mega pools the whole sweep on one
              shared chunk-activation mega-base, -json emits a
              deterministic frontier document for diffing
  bounds      print latency/bandwidth lower bounds
  simulate    run the discrete-event simulator across sizes
  cuda        emit CUDA-flavored C++ for a synthesized algorithm
  smtlib      emit the SMT-LIB2 (QF_LIA) encoding of an instance
  execute     run a synthesized algorithm on in-memory buffers and verify
  xml         emit the MSCCL-runtime XML for a synthesized algorithm
  trace       emit a chrome://tracing timeline of the simulated schedule
  library     save/show persisted algorithm libraries (save | show)
  serve       run the synthesis daemon: HTTP/JSON endpoints over a
              long-lived engine with request coalescing, a sharded
              response cache, admission control, and library snapshots

common flags: -topology dgx1|dgx2|amd|ring:N|bidir-ring:N|line:N|fc:N|
              star:N|hypercube:D|torus:RxC|bus:N:BW|
              multinode:BASE:COUNT:NICS:BW
              -collective Allgather|Allreduce|Broadcast|...  -root N
              -workers N    engine worker pool (0 = all cores)
              -library FILE warm the cache from FILE, save updates back
              -v            print engine and probe progress`)
}

// common holds the parsed shared flags and the engine they configure.
type common struct {
	topo    *sccl.Topology
	kind    sccl.Kind
	root    int
	eng     *sccl.Engine
	libPath string
}

// engineFlags holds the shared engine-configuration flags; every
// subcommand that drives an engine — one-shot commands through
// parseCommon, the serve daemon directly — registers the same set, so
// flag names and semantics never drift between them.
type engineFlags struct {
	workers    *int
	noSymmetry *bool
	noQuotient *bool
	verbose    *bool
}

func addEngineFlags(fs *flag.FlagSet) *engineFlags {
	return &engineFlags{
		workers:    fs.Int("workers", 0, "engine worker pool (0 = all cores)"),
		noSymmetry: fs.Bool("no-symmetry", false, "disable node-orbit symmetry exploitation, which runs wherever an automorphism stabilizing the instance moves every node, and on a rooted collective whose root stabilizer moves its chunks (frontier costs are identical either way; witnesses may differ)"),
		noQuotient: fs.Bool("no-quotient", false, "disable the chunk-orbit quotient encoding (frontier costs are identical either way; witnesses may differ)"),
		verbose:    fs.Bool("v", false, "print engine and probe progress"),
	}
}

// build constructs the engine the parsed flags describe. It does not
// touch any library file — one-shot commands load eagerly via
// parseCommon, while serve hands the path to the daemon for warm start
// and snapshots.
func (ef *engineFlags) build() *sccl.Engine {
	var progress func(format string, args ...any)
	if *ef.verbose {
		progress = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	return sccl.NewEngine(sccl.EngineOptions{
		Workers: *ef.workers, Progress: progress,
		NoSymmetryBreaking: *ef.noSymmetry, NoQuotient: *ef.noQuotient,
	})
}

func parseCommon(fs *flag.FlagSet, args []string) (*common, error) {
	topoSpec := fs.String("topology", "dgx1", "topology spec")
	collName := fs.String("collective", "Allgather", "collective kind")
	root := fs.Int("root", 0, "root node for rooted collectives")
	library := fs.String("library", "", "algorithm library JSON to load and save back")
	ef := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	topo, err := sccl.ParseTopology(*topoSpec)
	if err != nil {
		return nil, err
	}
	kind, err := sccl.ParseKind(*collName)
	if err != nil {
		return nil, err
	}
	cm := &common{topo: topo, kind: kind, root: *root, libPath: *library, eng: ef.build()}
	if cm.libPath != "" {
		if err := loadLibraryIfExists(cm.eng, cm.libPath); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

func loadLibraryIfExists(eng *sccl.Engine, path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := eng.LoadLibrary(f)
	if err != nil {
		return fmt.Errorf("library %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d library entries from %s\n", n, path)
	return nil
}

func saveLibrary(eng *sccl.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.SaveLibrary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish writes the engine cache back to the library file, if one was
// given.
func (cm *common) finish() error {
	if cm.libPath == "" {
		return nil
	}
	return saveLibrary(cm.eng, cm.libPath)
}

// synthOne answers one exact-budget request on the command's engine.
func (cm *common) synthOne(c, s, r int, timeout time.Duration) (*sccl.Result, error) {
	return cm.eng.Synthesize(context.Background(), sccl.Request{
		Kind: cm.kind, Topo: cm.topo, Root: sccl.Node(cm.root),
		Budget:  sccl.Budget{C: c, S: s, R: r},
		Timeout: timeout,
	})
}

func cmdSynthesize(args []string) error {
	fs := flag.NewFlagSet("synthesize", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	timeout := fs.Duration("timeout", 5*time.Minute, "solver timeout")
	format := fs.String("format", "text", "output: text|json")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	res, err := cm.synthOne(*c, *s, *r, *timeout)
	if err != nil {
		return err
	}
	hit := ""
	if res.CacheHit {
		hit = ", cache hit"
	}
	fmt.Printf("status: %v  (%.2fs%s)\n", res.Status, res.Wall.Seconds(), hit)
	if res.Algorithm != nil {
		switch *format {
		case "json":
			data, err := sccl.EncodeAlgorithm(res.Algorithm)
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		default:
			fmt.Print(res.Algorithm.Format())
		}
	}
	return cm.finish()
}

func cmdPareto(args []string) error {
	fs := flag.NewFlagSet("pareto", flag.ContinueOnError)
	k := fs.Int("k", 0, "k-synchronous bound (R <= S+k)")
	maxSteps := fs.Int("max-steps", 0, "step cap (0 = auto)")
	maxChunks := fs.Int("max-chunks", 0, "chunk cap (0 = auto)")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-instance solver timeout")
	stats := fs.Bool("stats", false, "print the sweep's and the engine's counters as one JSON object")
	noSessions := fs.Bool("no-sessions", false, "solve every probe one-shot: no mega-base adoption, no unsat-core pruning (the reference path)")
	jsonOut := fs.Bool("json", false, "print the frontier as a deterministic JSON document (synthesis times zeroed)")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	res, err := cm.eng.Pareto(context.Background(), sccl.ParetoRequest{
		Kind: cm.kind, Topo: cm.topo, Root: sccl.Node(cm.root),
		K: *k, MaxSteps: *maxSteps, MaxChunks: *maxChunks,
		Timeout: *timeout, NoSessions: *noSessions,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		// Zero the wall-clock field so two runs of the same sweep render
		// byte-identical documents — the contract the CI frontier gate
		// diffs sessions+pruning against -no-sessions with.
		pts := append([]sccl.ParetoPoint(nil), res.Points...)
		for i := range pts {
			pts[i].SynthesisTime = 0
		}
		data, err := sccl.EncodeFrontier(pts)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Printf("%-8s %-6s %-6s %-12s %-10s\n", "C", "S", "R", "Optimality", "Time")
		for _, p := range res.Points {
			fmt.Printf("%-8d %-6d %-6d %-12s %.1fs\n", p.C, p.S, p.R, p.Optimality(), p.SynthesisTime.Seconds())
		}
	}
	statsOut := os.Stdout
	if *jsonOut {
		statsOut = os.Stderr // keep the JSON document clean
	}
	if res.CacheHit {
		fmt.Fprintf(statsOut, "frontier served from cache in %.2fs\n", res.Wall.Seconds())
	} else {
		fmt.Fprintf(statsOut, "%d probes (%d pruned): %.1fs solver time in %.1fs wall, %.2fx speedup\n",
			res.Stats.Probes, res.Stats.Pruned, res.Stats.ProbeTime.Seconds(), res.Stats.Wall.Seconds(), res.Stats.Speedup())
	}
	if *stats && !res.CacheHit {
		enc := json.NewEncoder(statsOut)
		enc.SetIndent("", "  ")
		err := enc.Encode(struct {
			Sweep  sccl.ParetoStats `json:"sweep"`
			Engine sccl.CacheStats  `json:"engine"`
		}{res.Stats, cm.eng.CacheStats()})
		if err != nil {
			return err
		}
	}
	return cm.finish()
}

func cmdBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ContinueOnError)
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	steps, bw, err := sccl.LowerBounds(cm.kind, cm.topo, sccl.Node(cm.root))
	if err != nil {
		return err
	}
	fmt.Printf("%v on %s: latency >= %d steps, bandwidth cost R/C >= %s\n",
		cm.kind, cm.topo.Name, steps, bw.RatString())
	return nil
}

// synthOrFail synthesizes and errors out unless the result is Sat —
// shared by the commands that need an algorithm to work on.
func (cm *common) synthOrFail(c, s, r int) (*sccl.Algorithm, error) {
	res, err := cm.synthOne(c, s, r, 0)
	if err != nil {
		return nil, err
	}
	if res.Algorithm == nil {
		return nil, fmt.Errorf("synthesis returned %v", res.Status)
	}
	return res.Algorithm, nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	bytes := fs.Float64("bytes", 1<<20, "input size in bytes")
	lowering := fs.String("lowering", "fused-push", "lowering variant")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	low, err := sccl.ParseLowering(*lowering)
	if err != nil {
		return err
	}
	alg, err := cm.synthOrFail(*c, *s, *r)
	if err != nil {
		return err
	}
	profile := sccl.DGX1Profile()
	if cm.topo.Name == "amd-z52" {
		profile = sccl.AMDProfile()
	}
	res, err := sccl.Simulate(alg, sccl.SimConfig{Profile: profile, Lowering: low, Bytes: *bytes})
	if err != nil {
		return err
	}
	fmt.Printf("%s %s %s at %.0f bytes (%s): %.2f us, %d transfers\n",
		alg.Name, alg.CSR(), cm.topo.Name, *bytes, low, res.Time*1e6, res.Transfers)
	return cm.finish()
}

func cmdCUDA(args []string) error {
	fs := flag.NewFlagSet("cuda", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	lowering := fs.String("lowering", "fused-push", "lowering variant")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	low, err := sccl.ParseLowering(*lowering)
	if err != nil {
		return err
	}
	alg, err := cm.synthOrFail(*c, *s, *r)
	if err != nil {
		return err
	}
	src, err := sccl.GenerateCUDA(alg, low)
	if err != nil {
		return err
	}
	fmt.Print(src)
	return cm.finish()
}

func cmdSMTLIB(args []string) error {
	fs := flag.NewFlagSet("smtlib", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	coll, err := sccl.NewCollective(cm.kind, cm.topo.P, *c, sccl.Node(cm.root))
	if err != nil {
		return err
	}
	script, err := sccl.EmitSMTLIB(sccl.Instance{Coll: coll, Topo: cm.topo, Steps: *s, Round: *r})
	if err != nil {
		return err
	}
	fmt.Print(script.String())
	return nil
}

func cmdXML(args []string) error {
	fs := flag.NewFlagSet("xml", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	alg, err := cm.synthOrFail(*c, *s, *r)
	if err != nil {
		return err
	}
	out, err := sccl.GenerateMSCCLXML(alg)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return cm.finish()
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	bytes := fs.Float64("bytes", 1<<20, "input size in bytes")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	alg, err := cm.synthOrFail(*c, *s, *r)
	if err != nil {
		return err
	}
	profile := sccl.DGX1Profile()
	if cm.topo.Name == "amd-z52" {
		profile = sccl.AMDProfile()
	}
	tr, err := sccl.CollectTrace(alg, sccl.SimConfig{
		Profile: profile, Lowering: sccl.LowerFusedPush, Bytes: *bytes,
	})
	if err != nil {
		return err
	}
	data, err := tr.ChromeTraceJSON()
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	fmt.Fprintf(os.Stderr, "total %.2f us over %d transfers; critical path %d hops\n",
		tr.Total*1e6, len(tr.Events), len(tr.CriticalPath()))
	return cm.finish()
}

func cmdExecute(args []string) error {
	fs := flag.NewFlagSet("execute", flag.ContinueOnError)
	c := fs.Int("c", 1, "chunks per node")
	s := fs.Int("s", 2, "steps")
	r := fs.Int("r", 2, "rounds")
	elems := fs.Int("elems", 64, "elements per chunk")
	cm, err := parseCommon(fs, args)
	if err != nil {
		return err
	}
	alg, err := cm.synthOrFail(*c, *s, *r)
	if err != nil {
		return err
	}
	if err := sccl.Execute(alg, *elems); err != nil {
		return err
	}
	fmt.Printf("%s %s executed on %d goroutine-GPUs and verified bit-exactly\n",
		alg.Name, alg.CSR(), alg.P)
	return cm.finish()
}
