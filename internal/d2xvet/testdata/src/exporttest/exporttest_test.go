package exporttest_test

import (
	"testing"

	"d2x/internal/d2xvet/testdata/src/exporttest"
)

func TestAnswer(t *testing.T) {
	if exporttest.Answer() != exporttest.Answer42 {
		t.Fatal("answer changed")
	}
}
