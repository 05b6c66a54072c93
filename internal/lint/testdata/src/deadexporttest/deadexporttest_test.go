package deadexporttest

import "testing"

func TestOnlyFromTest(t *testing.T) {
	OnlyFromTest()
	if Oracle() != 1 {
		t.Fatal("oracle")
	}
}
