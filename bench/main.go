// Command bench is the repository benchmark: five synthesis and serving
// workloads, end-to-end metrics measured by an untraced run and a
// per-layer ladder measured by a separate traced run. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload pareto-rings --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -list
//	bash bench/run.sh -runs 3 -out A.json          # every workload, each run its own process
//	bash bench/run.sh -compare A.json B.json
//
// With exactly one -workload the workload runs in this process and the
// last line of standard output is the result object the benchmark
// contract asks for. With none or several, each workload runs in a child
// process of the same binary, so peak RSS is per workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// processStart is taken before anything else runs, so setup_s covers
// everything this process does before its first timed pass.
var processStart = time.Now()

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a single-workload run prints as its last line.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one run as stored in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

type options struct {
	seed     int64
	seconds  float64
	passes   int
	trace    int
	traceOut string
	tmpdir   string
}

func main() {
	var (
		workloads multiFlag
		opts      options
		specPath  = flag.String("spec", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
		out       = flag.String("out", "", "write the runs as JSON to this file (default: only standard output)")
		list      = flag.Bool("list", false, "print workloads with their reason and metrics with unit and bound, then exit")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
		regen     = flag.Bool("regen-goldens", false, "print frontier goldens made by the plainest path (one-shot, no sessions, symmetry or quotient); never run implicitly")
		runs      = flag.Int("runs", 1, "with several workloads: runs of each workload, each in its own process")
	)
	flag.Var(&workloads, "workload", "workload to run (repeatable; default all)")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opts.seconds, "seconds", 0, "measure for this long: timed passes repeat until it has elapsed, never fewer than 3 (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&opts.passes, "passes", 0, "exact number of timed passes, in a traced run of pairs of an untraced and a traced pass (overrides -seconds)")
	flag.IntVar(&opts.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&opts.traceOut, "trace-out", "", "with -trace 1: write the spans as chrome://tracing JSON to this file")
	flag.StringVar(&opts.tmpdir, "tmpdir", ".bench_build/tmp", "directory for the library snapshots serve-replay writes")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if opts.seconds == 0 {
		opts.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *list:
		spec.list(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files: A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *regen:
		if err := regenGoldens(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if opts.trace != 0 && opts.trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", opts.trace))
	}
	for _, name := range workloads {
		if _, ok := spec.workload(name); !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", name))
		}
	}

	if len(workloads) == 1 {
		rec, err := runWorkload(os.Stdout, spec, workloads[0], opts)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeResults(*out, []runRecord{rec}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.runResult)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			os.Exit(1)
		}
		return
	}

	if len(workloads) == 0 {
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	records, err := runChildren(workloads, *specPath, opts, *runs)
	if *out != "" {
		if werr := writeResults(*out, records); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeResults(path string, records []runRecord) error {
	data, err := json.MarshalIndent(resultFile{Runs: records}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChildren runs every named workload `runs` times, each run in a
// child process of this binary, untraced and (with -trace 1) traced too.
// A wrong answer in any child is an error after all children have run.
func runChildren(workloads []string, specPath string, opts options, runs int) ([]runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traces := []int{0}
	if opts.trace == 1 {
		traces = []int{0, 1}
	}
	var records []runRecord
	var wrong []string
	for _, name := range workloads {
		for r := 0; r < runs; r++ {
			for _, tr := range traces {
				args := []string{
					"-workload", name,
					"-seed", strconv.FormatInt(opts.seed, 10),
					"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
					"-passes", strconv.Itoa(opts.passes),
					"-trace", strconv.Itoa(tr),
					"-tmpdir", opts.tmpdir,
				}
				if specPath != "" {
					args = append(args, "-spec", specPath)
				}
				if tr == 1 && opts.traceOut != "" {
					args = append(args, "-trace-out", traceFileFor(opts.traceOut, name))
				}
				rec, err := runChild(self, args)
				if err != nil {
					return records, fmt.Errorf("workload %s: %w", name, err)
				}
				rec.Workload, rec.Seed, rec.Trace = name, opts.seed, tr
				records = append(records, rec)
				if !rec.Correct {
					wrong = append(wrong, name)
				}
			}
		}
	}
	if len(wrong) > 0 {
		return records, fmt.Errorf("wrong answers on: %s", strings.Join(wrong, ", "))
	}
	return records, nil
}

// traceFileFor gives each workload of a multi-workload run its own trace
// file: out.json -> out.<workload>.json.
func traceFileFor(path, workload string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "." + workload + path[i:]
	}
	return path + "." + workload
}

// runChild runs one child to completion, passes its report through and
// parses the result object on its last line.
func runChild(self string, args []string) (runRecord, error) {
	var rec runRecord
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	runErr := cmd.Run()
	out := bytes.TrimSpace(stdout.Bytes())
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal(last, &rec.runResult); err != nil {
		if runErr != nil {
			return rec, runErr
		}
		return rec, fmt.Errorf("child printed no result object: %w", err)
	}
	// Exit status 1 with a result object is a wrong answer, reported by
	// the caller; anything else is a failure to run.
	var exit *exec.ExitError
	if runErr != nil && !(errors.As(runErr, &exit) && exit.ExitCode() == 1) {
		return rec, runErr
	}
	return rec, nil
}
