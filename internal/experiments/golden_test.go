package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// update rewrites the golden figure records instead of checking them:
//
//	go test ./internal/experiments -run TestFiguresMatchGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// figures are the batch experiments of EXPERIMENTS.md, each at the scale the
// tier-1 suite runs it. Their counter columns are deterministic, so any change
// to a paper quantity shows up as a diff of testdata/<id>.golden.
var figures = []struct {
	id  string
	run func() ([]Row, error)
}{
	{"E1", E1},
	{"E2", E2},
	{"E3", func() ([]Row, error) { return E3(Config{Scale: 20}) }},
	{"E4", func() ([]Row, error) { return E4E5(Config{Scale: 40}) }},
	{"E6", func() ([]Row, error) { return E6(Config{Scale: 40}) }},
	{"E7", func() ([]Row, error) { return E7(Config{Scale: 40}) }},
	{"E8", func() ([]Row, error) { return E8E9(Config{Scale: 100}) }},
	{"E11", func() ([]Row, error) { return E11(Config{Scale: 40}) }},
	{"E12", func() ([]Row, error) { return E12(Config{Scale: 40}) }},
	{"A1", func() ([]Row, error) { return AblationRerank(Config{Scale: 40}) }},
	{"A2", func() ([]Row, error) { return AblationVorTree(Config{Scale: 40}) }},
	{"A3", func() ([]Row, error) { return AblationOrderKConstruction(Config{Scale: 40}) }},
}

var (
	figureMu   sync.Mutex
	figureRows = map[string][]Row{}
)

// rowsOf runs figure id once per test binary and returns its rows.
func rowsOf(t *testing.T, id string) []Row {
	t.Helper()
	figureMu.Lock()
	defer figureMu.Unlock()
	if rows, ok := figureRows[id]; ok {
		return rows
	}
	for _, f := range figures {
		if f.id == id {
			rows, err := f.run()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			figureRows[id] = rows
			return rows
		}
	}
	t.Fatalf("no figure %s", id)
	return nil
}

// buildTime is E12's precomputation wall time, the one timing in Extra.
var buildTime = regexp.MustCompile(` build=\S+`)

// goldenLine renders a row without its timings: the µs column is left out
// and the build time is cut from Extra.
func goldenLine(r Row) string {
	c := r.Counters
	return strings.TrimSpace(fmt.Sprintf("%s %s %s steps=%d recomp=%d shipped=%d dist=%d relax=%d visits=%d %s",
		r.Experiment, r.Param, r.Processor, r.Steps, r.Recomps, r.Shipped,
		c.DistanceCalcs, c.EdgeRelaxations, c.NodeVisits, buildTime.ReplaceAllString(r.Extra, "")))
}

func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, f := range figures {
		t.Run(f.id, func(t *testing.T) {
			var b strings.Builder
			for _, r := range rowsOf(t, f.id) {
				b.WriteString(goldenLine(r) + "\n")
			}
			path := filepath.Join("testdata", f.id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("%s differs from %s (regenerate with -update if the change is meant):\n got:\n%s\nwant:\n%s", f.id, path, got, want)
			}
		})
	}
}

// byParam indexes rows by parameter, then processor.
func byParam(rows []Row) map[string]map[string]Row {
	out := map[string]map[string]Row{}
	for _, r := range rows {
		if out[r.Param] == nil {
			out[r.Param] = map[string]Row{}
		}
		out[r.Param][r.Processor] = r
	}
	return out
}

// TestPaperOrderings asserts the paper's claims, not just the values. At every
// swept parameter INS recomputes less than naive (E4, E8) and no more often
// than the exact order-k cell safe region, whose cell INS's guard set
// implicitly delimits (E4); it ships fewer objects than naive (E4), and on the
// road network it relaxes fewer edges than naive (E8). Shipping fewer objects
// than the safe-region baselines does not hold here: a recomputation ships
// R ∪ I(R), 1.1–2.4× what V* ships over E4's k sweep and 1.9–7.4× what the
// order-k cell ships. TestE1 checks Figure 1's 3NN and MIS sets.
func TestPaperOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for param, procs := range byParam(rowsOf(t, "E4")) {
		ins, naive := procs["ins"], procs["naive"]
		if ins.Recomps >= naive.Recomps || ins.Shipped >= naive.Shipped {
			t.Errorf("E4 %s: ins recomputed %d and shipped %d, naive %d and %d", param, ins.Recomps, ins.Shipped, naive.Recomps, naive.Shipped)
		}
		for name, r := range procs {
			if strings.HasPrefix(name, "orderk-cell") && ins.Recomps > r.Recomps {
				t.Errorf("E4 %s: ins recomputed %d, %s %d", param, ins.Recomps, name, r.Recomps)
			}
		}
		if len(procs) != 4 {
			t.Errorf("E4 %s: processors %v, want ins, naive and two safe-region baselines", param, procs)
		}
	}
	for param, procs := range byParam(rowsOf(t, "E8")) {
		ins, naive := procs["ins-network"], procs["naive-network"]
		if ins.Recomps >= naive.Recomps {
			t.Errorf("E8 %s: ins recomputed %d, naive %d", param, ins.Recomps, naive.Recomps)
		}
		if ins.Counters.EdgeRelaxations >= naive.Counters.EdgeRelaxations {
			t.Errorf("E8 %s: ins relaxed %d edges, naive %d", param, ins.Counters.EdgeRelaxations, naive.Counters.EdgeRelaxations)
		}
	}
}
