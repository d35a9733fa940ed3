package cli_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// tools are the cmd/ binaries that share the harness.
var tools = []string{"interfsim", "profiler", "placer", "paperrepro", "loadgen", "interfd"}

// runs are the fixed-seed invocations whose stdout is pinned byte for
// byte, bar paperrepro's wall-clock "total runtime:" line.
var runs = []struct {
	golden string
	tool   string
	args   []string
}{
	{"placer", "placer", nil},
	{"placer_cells", "placer", []string{"-cells", "2", "-exchange", "100"}},
	{"profiler", "profiler", nil},
	{"interfsim", "interfsim", nil},
	{"interfsim_list", "interfsim", []string{"-list"}},
	{"paperrepro_table2", "paperrepro", []string{"-quick", "-only", "table2"}},
}

// TestCLISurface builds the six binaries once and pins their command-line
// surface: every -h listing, the fixed-seed stdout of the batch tools, and
// the exit status and message of a bad -log-level.
func TestCLISurface(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, tool := range tools {
		args = append(args, "repro/cmd/"+tool)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, tool := range tools {
		t.Run(tool+"/help", func(t *testing.T) {
			stdout, stderr, code := execTool(t, filepath.Join(bin, tool), "-h")
			if code != 0 {
				t.Fatalf("-h exited %d", code)
			}
			checkGolden(t, tool+".help", dropLines(stdout+stderr, "Usage of "))
		})
		t.Run(tool+"/bad-log-level", func(t *testing.T) {
			_, stderr, code := execTool(t, filepath.Join(bin, tool), "-log-level", "bogus")
			want := tool + `: obs: unknown log level "bogus"`
			if code != 1 || !strings.HasPrefix(stderr, want) {
				t.Errorf("exit %d, stderr %q; want exit 1 and stderr starting %q", code, stderr, want)
			}
		})
	}
	for _, r := range runs {
		t.Run(r.golden, func(t *testing.T) {
			stdout, stderr, code := execTool(t, filepath.Join(bin, r.tool), r.args...)
			if code != 0 {
				t.Fatalf("exited %d\n%s", code, stderr)
			}
			checkGolden(t, r.golden+".stdout", dropLines(stdout, "total runtime:"))
		})
	}
}

// execTool runs one binary with a bound on its wall time and returns its
// stdout, stderr and exit code.
func execTool(t *testing.T, path string, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit) && ctx.Err() == nil:
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatalf("%s %v: %v", filepath.Base(path), args, err)
		return "", "", -1
	}
}

// dropLines removes every line starting with prefix.
func dropLines(s, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, prefix) {
			b.WriteString(line)
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
