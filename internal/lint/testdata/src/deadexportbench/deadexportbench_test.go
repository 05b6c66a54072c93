package deadexportbench

import (
	"testing"

	"paratime/internal/lint/testdata/src/deadexporttest"
)

func TestBench(t *testing.T) {
	Run()
	deadexporttest.CalledByBenchTest()
}
