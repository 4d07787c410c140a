package alive_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	bashDefault = regexp.MustCompile(`(?m)^defaults:\n +run:\n +shell: *bash *$`)
	shellLine   = regexp.MustCompile(`(?m)^ +shell: *(.*?) *$`)
	commentLine = regexp.MustCompile(`(?m)^ *#.*\n`)
	targetFlag  = regexp.MustCompile(`-(?:fuzz|bench)[= ]'?((?:Fuzz|Benchmark)\w*)`)
	pkgPath     = regexp.MustCompile(`(?:^|\s)(\./[\w./-]*)`)
)

// workflows returns the source of every CI workflow file by name.
func workflows(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	out := map[string]string{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(src)
	}
	return out
}

// pipefailProblems lists why a workflow's run steps might take a
// pipeline's exit status from its last command (tee, after an
// alive-bench gate) instead of from the first that failed. An explicit
// `shell: bash` runs steps as `bash -eo pipefail`; the runner's default
// shell does not set pipefail.
func pipefailProblems(src string) []string {
	src = commentLine.ReplaceAllString(src, "")
	var probs []string
	if !bashDefault.MatchString(src) {
		probs = append(probs, "no workflow-level `defaults: run: shell: bash`")
	}
	for _, m := range shellLine.FindAllStringSubmatch(src, -1) {
		if m[1] != "bash" && !strings.Contains(m[1], "pipefail") {
			probs = append(probs, "shell override without pipefail: "+m[1])
		}
	}
	return probs
}

func TestWorkflowGatesUsePipefail(t *testing.T) {
	for f, src := range workflows(t) {
		for _, p := range pipefailProblems(src) {
			t.Errorf("%s: %s", f, p)
		}
	}
}

func TestPipefailProblems(t *testing.T) {
	const head = "name: CI\non:\n  pull_request:\n"
	const bash = "defaults:\n  run:\n    shell: bash\n"
	const jobs = "jobs:\n  test:\n    steps:\n      - run: go run ./cmd/alive-bench | tee out.txt\n"
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"default shell", head + jobs, 1},
		{"bash default", head + bash + jobs, 0},
		{"commented out", head + "# " + strings.ReplaceAll(bash, "\n", "\n# ") + "\n" + jobs, 1},
		{"step drops pipefail", head + bash + jobs + "        shell: sh\n", 1},
		{"step keeps pipefail", head + bash + jobs + "        shell: bash -eo pipefail {0}\n", 0},
	} {
		if got := pipefailProblems(tc.src); len(got) != tc.want {
			t.Errorf("%s: problems %q, want %d", tc.name, got, tc.want)
		}
	}
}

// staleTargets lists the -fuzz and -bench targets a workflow names that
// no test file in the package path on the same line declares. A stale
// target passes silently: `go test -fuzz=FuzzGone` prints "no fuzz
// tests to fuzz" and exits 0, and a stale -bench pattern runs nothing.
func staleTargets(src string) []string {
	src = commentLine.ReplaceAllString(src, "")
	var stale []string
	for _, line := range strings.Split(src, "\n") {
		for _, m := range targetFlag.FindAllStringSubmatch(line, -1) {
			pkg := pkgPath.FindStringSubmatch(line)
			if pkg == nil {
				stale = append(stale, m[1]+": no package path on its line")
			} else if !declares(pkg[1], m[1]) {
				stale = append(stale, m[1]+": no func "+m[1]+" in "+pkg[1])
			}
		}
	}
	return stale
}

// declares reports whether a test file in dir declares func name,
// whatever its build tags.
func declares(dir, name string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	decl := regexp.MustCompile(`(?m)^func ` + name + `\(`)
	for _, f := range files {
		if src, err := os.ReadFile(f); err == nil && decl.Match(src) {
			return true
		}
	}
	return false
}

func TestWorkflowTargetsExist(t *testing.T) {
	for f, src := range workflows(t) {
		for _, p := range staleTargets(src) {
			t.Errorf("%s: %s", f, p)
		}
	}
}

func TestStaleTargets(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"live fuzz target", "run: go test -run='^$' -fuzz=FuzzParse -fuzztime=20s ./internal/parser\n", 0},
		{"live bench target", "run: go test -run '^$' -bench BenchmarkSolveCorpus -benchtime 1x ./internal/verify/\n", 0},
		{"build-tagged target", "go test -tags chaos -run='^$' -fuzz=FuzzChaos -fuzztime=20s ./internal/verify\n", 0},
		{"deleted fuzz target", "go test -run='^$' -fuzz=FuzzGone -fuzztime=20s ./internal/verify\n", 1},
		{"target in the wrong package", "go test -run='^$' -fuzz=FuzzParse ./internal/verify\n", 1},
		{"deleted bench target", "go test -run '^$' -bench BenchmarkGone -benchtime 1x ./internal/sat\n", 1},
		{"no package path", "go test -fuzz=FuzzParse\n", 1},
		{"commented out", "# go test -fuzz=FuzzGone ./internal/verify\n", 0},
	} {
		if got := staleTargets(tc.src); len(got) != tc.want {
			t.Errorf("%s: stale %q, want %d", tc.name, got, tc.want)
		}
	}
}
