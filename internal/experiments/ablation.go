package experiments

import (
	"fmt"

	convoy "repro"
	"repro/internal/core"
	"repro/internal/storage"
)

func init() {
	register("ablation", ablation)
}

// ablation quantifies two of k/2-hop's design choices (not a paper figure —
// see docs/ARCHITECTURE.md, "Design notes"): the HWMT bisection order vs a
// left-to-right sweep, and the post-extension fixpoint. Reported per
// dataset at the default k: wall-clock and points read for each variant.
func ablation(s Scale) (Table, error) {
	t := Table{
		ID:      "ablation",
		Title:   "k/2-hop design-choice ablations",
		Columns: []string{"dataset", "variant", "time", "points read"},
		Notes:   "bisection aborts dead hop-windows earlier; the fixpoint re-extension finds convoys the paper's single right-then-left pass misses",
	}
	for _, spec := range Datasets() {
		ds := spec.Build(s)
		k := spec.KMid(ds)
		variants := []struct {
			name string
			mut  func(*core.Config)
		}{
			{"baseline (bisect + re-extend)", func(*core.Config) {}},
			{"linear HWMT order", func(c *core.Config) { c.LinearHWMT = true }},
			{"no re-extension", func(c *core.Config) { c.ReExtend = false }},
		}
		var baseConvoys int
		for vi, v := range variants {
			cfg := core.DefaultConfig(spec.M, k, spec.Eps)
			cfg.Workers = 1 // ablate the algorithm, not the pool
			v.mut(&cfg)
			ms := storage.NewMemStore(ds)
			var convoys []convoy.Convoy
			dur, err := timeIt(func() error {
				out, _, err := core.Mine(ms, cfg)
				convoys = out
				return err
			})
			if err != nil {
				return t, err
			}
			if vi == 0 {
				baseConvoys = len(convoys)
			} else if v.name == "linear HWMT order" && len(convoys) != baseConvoys {
				return t, fmt.Errorf("ablation: linear order changed results on %s", spec.Name)
			}
			reads := ms.Stats().Snapshot().PointsRead
			t.Rows = append(t.Rows, []string{
				spec.Name, v.name, secs(dur), fmt.Sprintf("%d", reads),
			})
		}
	}
	return t, nil
}
