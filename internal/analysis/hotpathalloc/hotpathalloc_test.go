package hotpathalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotpathalloc"
)

func TestAnalyzer(t *testing.T) {
	a := hotpathalloc.New(hotpathalloc.Config{
		Require: map[string][]string{"a": {"MustBeHot", "Cell.Step"}},
	})
	analysistest.Run(t, a, "testdata/src/a")
}
