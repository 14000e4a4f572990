//go:build goexperiment.synctest

package monitor

import (
	"os"
	"testing"
	"testing/synctest"
)

// TestMain runs every test of the package in one synctest bubble, on a
// virtual clock (docs/robustness.md, "Testing on a virtual clock").
func TestMain(m *testing.M) {
	var code int
	synctest.Run(func() { code = m.Run() })
	os.Exit(code)
}
