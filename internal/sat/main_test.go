package sat

import (
	"os"
	"testing"

	"alive/internal/leakcheck"
)

// TestMain fails the package if any solver goroutine leaks past the
// tests (the stop-flag flippers of TestStopFlagResume included).
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
