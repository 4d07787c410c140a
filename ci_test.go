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
)

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
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pipefailProblems(string(src)) {
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
