package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSchemeAll runs cbi-run's own main with -scheme all: the test
// binary re-executes itself as the command, so the flag goes through
// exactly the parse path a user's invocation does.
func TestSchemeAll(t *testing.T) {
	if args := os.Getenv("CBI_RUN_ARGS"); args != "" {
		os.Args = append([]string{"cbi-run"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	src := filepath.Join(t.TempDir(), "p.mc")
	prog := "int f(int x) {\n\tif (x > 2) {\n\t\treturn x - 1;\n\t}\n\treturn x + 1;\n}\n\nint main() {\n\tint y = f(3);\n\treturn 0;\n}\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSchemeAll$")
	cmd.Env = append(os.Environ(), "CBI_RUN_ARGS=-file "+src+" -scheme all -stdout=false")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cbi-run -scheme all: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "outcome: ok") || strings.Contains(string(out), "report: 0 counters") {
		t.Errorf("cbi-run -scheme all output:\n%s", out)
	}
}
