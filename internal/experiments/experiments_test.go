package experiments

import (
	"strings"
	"sync"
	"testing"
)

// The experiments are end-to-end runs over the trained system; tests share
// one fast-mode context.
var (
	ctxOnce sync.Once
	ctxVal  *Context
	ctxErr  error
)

func testCtx(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctxVal, ctxErr = NewContext(Options{Seed: 3, Fast: true})
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctxVal
}

func TestTableI(t *testing.T) {
	r, err := TableI(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 13 {
		t.Fatalf("rows = %d, want 13 (Table I scripts)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ProfiledTypes < 2 {
			t.Errorf("%s %s profiled %d types", row.Game, row.Script, row.ProfiledTypes)
		}
		// The profiled count should track the paper's count within ±1.
		diff := row.ProfiledTypes - row.SpecTypes
		if diff < -1 || diff > 1 {
			t.Errorf("%s %s: profiled %d vs paper %d", row.Game, row.Script, row.ProfiledTypes, row.SpecTypes)
		}
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Error("rendering lacks title")
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) < 5 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	// Stages alternate loading and execution; loading is CPU-heavy/GPU-idle.
	for i, s := range r.Stages {
		if i > 0 && s.Loading == r.Stages[i-1].Loading {
			t.Error("stages do not alternate")
		}
		if s.Loading && s.MeanGPU > 25 {
			t.Errorf("loading stage %d mean GPU %.1f", s.Index, s.MeanGPU)
		}
	}
	if len(r.Series) == 0 {
		t.Error("no series data")
	}
}

func TestFig5AndFig6(t *testing.T) {
	ctx := testCtx(t)
	csgo, err := Fig5(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if csgo.K != 4 {
		t.Errorf("CSGO K = %d, want 4", csgo.K)
	}
	dmc, err := Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dmc.K != 6 {
		t.Errorf("DMC K = %d, want 6", dmc.K)
	}
	// At least one multi-cluster stage type must appear for each (Fig. 4's
	// combination stages).
	for _, r := range []*ClusteringResult{csgo, dmc} {
		multi := false
		for _, s := range r.Stages {
			if !s.Loading && len(s.ClusterSet) > 1 {
				multi = true
			}
		}
		if !multi {
			t.Errorf("%s: no multi-cluster stage type discovered", r.Game)
		}
		if r.String() == "" {
			t.Error("empty rendering")
		}
	}
	if _, err := StageTypesOf(ctx, "nope"); err == nil {
		t.Error("unknown game did not error")
	}
}

func TestFig9(t *testing.T) {
	r, err := Fig9(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxGenshin <= r.MaxDOTA2 {
		t.Errorf("Genshin max %.1f should exceed DOTA2 max %.1f (Fig. 9 shape)",
			r.MaxGenshin, r.MaxDOTA2)
	}
	if r.Summary.Sessions == 0 {
		t.Fatal("no sessions completed")
	}
	if r.Summary.MeanDegraded > 0.10 {
		t.Errorf("mean degraded %.3f", r.Summary.MeanDegraded)
	}
	if len(r.Series) == 0 {
		t.Error("no utilization series")
	}
	if !strings.Contains(r.String(), "Genshin") {
		t.Error("rendering wrong")
	}
}

func TestFig10(t *testing.T) {
	r, err := Fig10(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Games) != 5 {
		t.Fatalf("games = %d", len(r.Games))
	}
	// The headline: positive average saving at held QoS (paper: 17.5 %).
	if r.AvgSaving < 0.05 || r.AvgSaving > 0.5 {
		t.Errorf("average saving %.3f outside plausible band", r.AvgSaving)
	}
	for _, g := range r.Games {
		if g.FPSRatio < 0.9 {
			t.Errorf("%s FPS ratio %.3f while saving", g.Game, g.FPSRatio)
		}
		if g.Saving < -0.05 {
			t.Errorf("%s negative saving %.3f", g.Game, g.Saving)
		}
	}
	if len(r.GenshinSeries) == 0 {
		t.Error("no Genshin allocation series for the figure")
	}
}

func TestFig11(t *testing.T) {
	r, err := Fig11(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pairs) != 3 {
		t.Fatalf("pairs = %d", len(r.Pairs))
	}
	for _, p := range r.Pairs {
		if len(p.Cells) != 4 {
			t.Fatalf("cells = %d", len(p.Cells))
		}
		var cocg, vbp *Fig11Cell
		for i := range p.Cells {
			switch p.Cells[i].Policy {
			case "CoCG":
				cocg = &p.Cells[i]
			case "VBP":
				vbp = &p.Cells[i]
			}
		}
		if cocg == nil || vbp == nil {
			t.Fatal("missing policies")
		}
		// CoCG must not lose to VBP on any pair (the paper's headline).
		if cocg.Throughput < vbp.Throughput*0.9 {
			t.Errorf("%s+%s: CoCG %.0f well below VBP %.0f", p.A, p.B, cocg.Throughput, vbp.Throughput)
		}
	}
	if r.Improvement <= 0 {
		t.Errorf("CoCG improvement %.3f not positive", r.Improvement)
	}
}

func TestFig12(t *testing.T) {
	r, err := Fig12(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !r.AllCovered {
		t.Error("prediction latency exceeded a loading window")
	}
	for _, row := range r.Rows {
		for name, lat := range row.PredictSec {
			if lat < 3 || lat > 13 {
				t.Errorf("%s %s latency %d outside the paper's 3-13 s", row.Game, name, lat)
			}
		}
	}
}

func TestFig13(t *testing.T) {
	r, err := Fig13(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanCoCG <= r.MeanGAugur {
		t.Errorf("CoCG FPS %.3f not above GAugur %.3f (Fig. 13 shape)", r.MeanCoCG, r.MeanGAugur)
	}
	if len(r.Rows) != 8 {
		t.Errorf("rows = %d, want 4 games x 2 policies", len(r.Rows))
	}
}

func TestFig14(t *testing.T) {
	r, err := Fig14(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 5 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Points) != 8 {
			t.Errorf("%s sweep has %d points", c.Game, len(c.Points))
		}
		// SSE decreases with K (the defining property of Fig. 14).
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].SSE > c.Points[i-1].SSE*1.05 {
				t.Errorf("%s SSE increased at K=%d", c.Game, c.Points[i].K)
			}
		}
		if c.Elbow < 2 || c.Elbow > 8 {
			t.Errorf("%s elbow = %d", c.Game, c.Elbow)
		}
	}
}

func TestFig15(t *testing.T) {
	r, err := Fig15(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		for name, acc := range row.Accuracy {
			if acc < 0 || acc > 1 {
				t.Errorf("%s %s accuracy %v", row.Game, name, acc)
			}
		}
	}
}

func TestCategoryAblation(t *testing.T) {
	r, err := CategoryAblation(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// For the high-user-influence games the category-aware strategy should
	// not lose badly to global pooling (it usually wins by a wide margin;
	// fast-mode sample sizes add noise, and a zero means the per-player
	// groups were too small to score at all in fast mode).
	for _, row := range r.Rows {
		if row.Game == "Genshin Impact" && row.CategoryAcc > 0 &&
			row.CategoryAcc < row.GlobalAcc-0.15 {
			t.Errorf("per-player training (%.2f) lost to global (%.2f) on Genshin",
				row.CategoryAcc, row.GlobalAcc)
		}
	}
}

func TestRedundancyAblation(t *testing.T) {
	r, err := RedundancyAblation(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]RedundancyAblationRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	// Disabling redundancy must not reserve more than Eq. 1.
	if byName["none"].MeanAlloc > byName["Eq.1 adaptive"].MeanAlloc+1e-9 {
		t.Errorf("no-redundancy alloc %.1f above Eq.1 %.1f",
			byName["none"].MeanAlloc, byName["Eq.1 adaptive"].MeanAlloc)
	}
}

func TestLoadingStealAblation(t *testing.T) {
	r, err := LoadingStealAblation(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.WithSteal.Sessions == 0 || r.WithoutSteal.Sessions == 0 {
		t.Fatal("no sessions in an arm")
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFrameIntervalAblation(t *testing.T) {
	r, err := FrameIntervalAblation(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byInterval := map[int]IntervalAblationRow{}
	for _, row := range r.Rows {
		byInterval[row.IntervalSec] = row
	}
	// The paper's 5-second choice catches every loading stage; 30 s misses
	// some (CSGO loads can be 10 s).
	if byInterval[5].LoadingDetectRate < 0.999 {
		t.Errorf("5 s interval catches %.2f of loads", byInterval[5].LoadingDetectRate)
	}
	if byInterval[30].LoadingDetectRate >= byInterval[5].LoadingDetectRate {
		t.Error("30 s interval should miss loading stages that 5 s catches")
	}
	// Finer intervals give more samples per stage.
	if byInterval[1].FramesPerStage <= byInterval[5].FramesPerStage {
		t.Error("1 s interval should sample more finely")
	}
}

func TestCompareClusterers(t *testing.T) {
	ctx := testCtx(t)
	r, err := CompareClusterers(ctx, "Devil May Cry")
	if err != nil {
		t.Fatal(err)
	}
	if r.KMeansF1 < 0.8 {
		t.Errorf("k-means F1 %.3f", r.KMeansF1)
	}
	// Section V-D1: K-means beats graph partitioning on the cataloging task,
	// for every game.
	rows, err := GraphPartitionAblation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ctx.System.Games()) {
		t.Fatalf("ablation rows = %d, want one per game", len(rows))
	}
	for _, r := range rows {
		if r.KMeansScore <= r.GraphScore {
			t.Errorf("%s: k-means score %.3f not above graph partitioning %.3f",
				r.Game, r.KMeansScore, r.GraphScore)
		}
	}
	if _, err := CompareClusterers(ctx, "nope"); err == nil {
		t.Error("unknown game did not error")
	}
}

func TestTableRenderer(t *testing.T) {
	tb := &table{header: []string{"a", "long-header"}}
	tb.add("x", "y")
	tb.add("longer-cell", "z")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All lines align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("header and rule widths differ: %q vs %q", lines[0], lines[1])
	}
}

func TestScaleOut(t *testing.T) {
	r, err := ScaleOut(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Throughput grows with cluster size and per-server efficiency does not
	// collapse (allow generous noise in fast mode).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.Throughput <= first.Throughput {
		t.Errorf("throughput did not grow: %v -> %v", first.Throughput, last.Throughput)
	}
	if last.Sessions > 0 && first.Sessions > 0 && last.PerServer < first.PerServer*0.4 {
		t.Errorf("per-server efficiency collapsed: %v -> %v", first.PerServer, last.PerServer)
	}
}

func TestOnlineLearning(t *testing.T) {
	r, err := OnlineLearning(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// The player must graduate to a dedicated model within the run.
	graduated := false
	for _, p := range r.Points {
		if p.Dedicated {
			graduated = true
		}
	}
	if !graduated {
		t.Error("cold-start player never got a dedicated model")
	}
}

func TestPlacementAblation(t *testing.T) {
	r, err := PlacementAblation(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Sessions == 0 {
			t.Errorf("%s completed nothing", row.Strategy)
		}
	}
}

func TestPairMatrix(t *testing.T) {
	r, err := PairMatrix(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 pairings", len(r.Rows))
	}
	anyCo := false
	for _, row := range r.Rows {
		if row.CoLocated {
			anyCo = true
		}
		if row.Throughput <= 0 {
			t.Errorf("%s+%s: zero throughput", row.A, row.B)
		}
	}
	if !anyCo {
		t.Error("no pairing ever co-located")
	}
	// The light pairing must co-locate.
	for _, row := range r.Rows {
		if (row.A == "Genshin Impact" && row.B == "Contra") ||
			(row.A == "Contra" && row.B == "Genshin Impact") {
			if !row.CoLocated {
				t.Error("Genshin+Contra did not co-locate")
			}
		}
	}
}
