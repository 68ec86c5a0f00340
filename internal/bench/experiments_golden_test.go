package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"multiclock/internal/metrics"
)

// experimentsGolden pins every experiment report mcbench prints at
// -quick -seed 1, plus the sha256 of the -metrics export of the two
// experiments whose cells instrument their machines through different
// builders (fig5: the sequence run; fig10: the workload-A sweep).
//
// fig6 is left out for time (~17 s at quick scale); it shares the YCSB
// sequence cell with fig5 and differs only in its workload list.
//
// Regenerate (only for intentional report changes) with:
//
//	go test ./internal/bench -run TestGoldenExperiments -update-golden
const experimentsGolden = "golden_experiments.txt"

var goldenExportExperiments = []string{"fig5", "fig10"}

func renderGoldenExperiments(t *testing.T) []byte {
	var b strings.Builder
	opt := Options{Quick: true, Seed: 1}
	for _, name := range Names() {
		if name == "fig6" {
			continue
		}
		out, err := Run(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%s\n", name, out)
	}
	for _, name := range goldenExportExperiments {
		o := opt
		o.Metrics = metrics.NewPool(0)
		if _, err := Run(name, o); err != nil {
			t.Fatal(err)
		}
		data, err := o.Metrics.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "==== %s -metrics sha256 ====\n%x\n", name, sha256.Sum256(data))
	}
	return []byte(b.String())
}

// TestGoldenExperiments proves refactors of the experiment harness leave
// every report byte-identical.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment")
	}
	t.Parallel()
	checkGolden(t, experimentsGolden, renderGoldenExperiments(t))
}
