// cbi-instrument parses a MiniC program (a file or a named built-in
// workload), applies an instrumentation scheme and optionally the
// sampling transformation, and reports static metrics, the site list, or
// a full CFG dump (the textual analogue of the paper's Figure 1).
//
// Usage:
//
//	cbi-instrument -workload treeadd -scheme bounds -sample -metrics
//	cbi-instrument -file prog.mc -scheme returns -dump
package main

import (
	"flag"
	"fmt"
	"os"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/minic"
	"cbi/internal/workloads"
)

func main() {
	var (
		file     = flag.String("file", "", "MiniC source file")
		workload = flag.String("workload", "", "built-in workload name (treeadd, bc, ccrypt, ...)")
		scheme   = flag.String("scheme", "bounds", "schemes: returns, scalar-pairs, branches, bounds, asserts, or all (comma separated)")
		sample   = flag.Bool("sample", false, "apply the sampling transformation")
		dump     = flag.Bool("dump", false, "dump the CFG")
		sites    = flag.Bool("sites", false, "list instrumentation sites")
		metrics  = flag.Bool("metrics", true, "print static metrics")
		persite  = flag.Bool("check-per-site", false, "use the degenerate check-per-site transformation")
		separate = flag.Bool("separate", false, "assume separate compilation (conservative weightless analysis)")
		simplify = flag.Bool("simplify", false, "run the CFG simplification pass (jump threading, block merging)")
	)
	flag.Parse()

	set, err := instrument.ParseSchemes(*scheme)
	if err != nil {
		fatal(err)
	}

	var f *minic.File
	builtins := minic.DefaultBuiltins()
	switch {
	case *workload == "ccrypt":
		f, err = minic.Parse("ccrypt.mc", workloads.CcryptSource)
		builtins = workloads.CcryptBuiltins()
	case *workload == "bc":
		f, err = minic.Parse("bc.mc", workloads.BCSource)
	case *workload != "":
		var b workloads.Benchmark
		b, err = workloads.ByName(*workload)
		if err == nil {
			f, err = b.Parse()
		}
	case *file != "":
		var src []byte
		src, err = os.ReadFile(*file)
		if err == nil {
			f, err = minic.Parse(*file, string(src))
		}
	default:
		err = fmt.Errorf("need -file or -workload")
	}
	if err != nil {
		fatal(err)
	}

	prog, err := cfg.Build(f, builtins, &instrument.Schemes{Set: set})
	if err != nil {
		fatal(err)
	}
	if *sample {
		opt := instrument.DefaultOptions()
		opt.CheckPerSite = *persite
		opt.SeparateCompilation = *separate
		prog = instrument.Sample(prog, opt)
	}

	if *simplify {
		cfg.SimplifyProgram(prog)
	}
	if *metrics {
		m := instrument.ComputeMetrics(prog)
		fmt.Println(instrument.TableHeader())
		fmt.Println(m.Row(f.Name))
		fmt.Printf("\ncounters: %d   code size: %d\n", prog.NumCounters, instrument.CodeSize(prog))
	}
	if *sites {
		for _, s := range prog.Sites {
			fmt.Printf("site#%-4d %-12s %s\n", s.ID, s.Kind, s.PredicateName(-1))
		}
	}
	if *dump {
		fmt.Print(cfg.DumpProgram(prog))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbi-instrument:", err)
	os.Exit(1)
}
