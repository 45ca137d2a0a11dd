package bench

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fptree/internal/scm"
)

// The smoke test is one table: every entry of Experiments runs end to end
// through the same Run the CLI calls, at a tiny scale with a two-thread
// sweep, and must print the rows and headers listed for it here.
var tiny = Scale{Warm: 2000, Ops: 1000}

var smokeWant = map[string][]string{
	"tab1":            {"inner", "Find(ns)"},
	"fig4":            {"FP(analytic)"},
	"fig7":            {"FPTree", "PTree", "NV-Tree", "wBTree", "STXTree"},
	"fig7var":         {"FPTreeVar", "PTreeVar", "NV-TreeVar", "wBTreeVar", "STXTreeVar"},
	"fig7rec":         {"recovery(ms)", "STXTree"},
	"fig8":            {"FPTree", "DRAM", "# variable-size keys"},
	"fig9":            {"FPTreeC ", "NV-TreeC ", "fixed keys, SCM 85ns", "Mixed"},
	"fig9var":         {"FPTreeCVar", "NV-TreeCVar", "variable-size keys, SCM 85ns"},
	"fig10":           {"FPTreeC ", "NV-TreeC ", "       4 Find"},
	"fig11":           {"FPTreeC ", "SCM 145ns"},
	"fig12":           {"restart(ms)", "STXTree"},
	"fig13":           {"HashMap", "FPTreeC"},
	"fig14":           {"payload", "FPTreeVar", "     112 "},
	"ablation-fp":     {"with-FP", "speedup"},
	"ablation-groups": {"no-groups", "speedup"},
	"ablation-sp":     {"all-SCM", "speedup"},
}

func smoke(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("no experiment %q in the table", id)
		}
		var buf bytes.Buffer
		if err := Experiments[i].Run(&buf, tiny, 2); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range smokeWant[id] {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", id, want, buf.String())
			}
		}
		// A verb passed as an argument prints as %%, a verb without its
		// argument as %!: both are format bugs in the table.
		for _, bad := range []string{"%%", "%!"} {
			if strings.Contains(buf.String(), bad) {
				t.Errorf("%s: output contains %q:\n%s", id, bad, buf.String())
			}
		}
	}
}

// One entry point per figure family, under the names the tests have always
// had; together they cover the table, which TestExperimentTable pins.
func TestTable1Runs(t *testing.T)          { smoke(t, "tab1") }
func TestFig4ProbesRuns(t *testing.T)      { smoke(t, "fig4") }
func TestFig7FixedRuns(t *testing.T)       { smoke(t, "fig7") }
func TestFig7VarRuns(t *testing.T)         { smoke(t, "fig7var") }
func TestFig7RecoveryRuns(t *testing.T)    { smoke(t, "fig7rec") }
func TestFig8MemoryRuns(t *testing.T)      { smoke(t, "fig8") }
func TestFig9ConcurrencyRuns(t *testing.T) { smoke(t, "fig9", "fig9var", "fig10", "fig11") }
func TestFig12TATPRuns(t *testing.T)       { smoke(t, "fig12") }
func TestFig13MemcachedRuns(t *testing.T)  { smoke(t, "fig13") }
func TestFig14PayloadRuns(t *testing.T)    { smoke(t, "fig14") }
func TestAblationsRun(t *testing.T)        { smoke(t, "ablation-fp", "ablation-groups", "ablation-sp") }

// TestExperimentTable pins the table against its two mirrors: the smoke
// expectations above and the experiment index in DESIGN.md, whose `-exp <id>`
// cells must name exactly the table's ids.
func TestExperimentTable(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments {
		if ids[e.ID] || e.ID == "all" || e.Title == "" || e.Run == nil {
			t.Errorf("bad or duplicate table entry %q", e.ID)
		}
		ids[e.ID] = true
		if len(smokeWant[e.ID]) == 0 {
			t.Errorf("experiment %q has no smoke expectations", e.ID)
		}
	}
	if len(smokeWant) != len(ids) {
		t.Errorf("smokeWant has %d entries, the table %d", len(smokeWant), len(ids))
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`-exp ([a-z][a-z0-9-]*)`").FindAllSubmatch(design, -1) {
		documented[string(m[1])] = true
	}
	for id := range ids {
		if !documented[id] {
			t.Errorf("DESIGN.md's experiment index has no `-exp %s`", id)
		}
	}
	for id := range documented {
		if !ids[id] && id != "all" {
			t.Errorf("DESIGN.md documents `-exp %s`, which is not in the table", id)
		}
	}
}

// TestCheckRecovered is fig7rec's count check on a real reopened tree: the
// loaded count passes, any other fails naming the tree, latency and size.
func TestCheckRecovered(t *testing.T) {
	inst, err := NewFixed(KindFPTree, 16, scm.LatencyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := load(inst.Fixed, genKeys(100, 1), 1); err != nil {
		t.Fatal(err)
	}
	inst.Pool.Crash()
	tree, err := inst.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(tree, inst.Name, 90, 100); err != nil {
		t.Fatal(err)
	}
	err = checkRecovered(tree, inst.Name, 90, 101)
	if err == nil || !strings.Contains(err.Error(), "FPTree at 90 ns, size 101") {
		t.Fatalf("a short tree passed or was misnamed: %v", err)
	}
}

func TestFig4AnalyticFormula(t *testing.T) {
	// Spot values from the paper's Figure 4: E[T] ~1 for m up to ~400 with
	// n = 256.
	if e := expectedFPProbes(32, 256); e < 1.0 || e > 1.2 {
		t.Fatalf("E[T] at m=32: %f", e)
	}
	if e := expectedFPProbes(256, 256); e < 1.2 || e > 1.6 {
		t.Fatalf("E[T] at m=256: %f", e)
	}
}

func TestAdaptersRoundTrip(t *testing.T) {
	for _, kind := range FixedKinds {
		inst, err := NewFixed(kind, 32, scm.LatencyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 200; k++ {
			if err := inst.Fixed.Insert(k, k*2); err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
		}
		for k := uint64(1); k <= 200; k++ {
			v, ok := inst.Fixed.Find(k)
			if !ok || v != k*2 {
				t.Fatalf("%s: find(%d) = %d,%v", inst.Name, k, v, ok)
			}
		}
		if ok, _ := inst.Fixed.Update(5, 99); !ok {
			t.Fatalf("%s: update failed", inst.Name)
		}
		if ok, _ := inst.Fixed.Delete(7); !ok {
			t.Fatalf("%s: delete failed", inst.Name)
		}
	}
	for _, kind := range FixedKinds {
		inst, err := NewVar(kind, 64, 8, scm.LatencyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 200; k++ {
			if err := inst.Var.Insert(keyN(paperKeyLen, k), []byte("12345678")); err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
		}
		for k := uint64(1); k <= 200; k++ {
			if _, ok := inst.Var.Find(keyN(paperKeyLen, k)); !ok {
				t.Fatalf("%s: var find(%d) failed", inst.Name, k)
			}
		}
	}
}
