package mlmodels

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// roundTrip saves and reloads a classifier through the polymorphic wrapper.
func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	saved, err := SaveModel(c)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	var back SavedModel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&back)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestRoundTripPreservesPredictions(t *testing.T) {
	ds := synthDataset(300, 11)
	test := synthDataset(80, 12)
	for _, m := range allModels() {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, m)
		if loaded.Name() != m.Name() {
			t.Errorf("kind changed: %s -> %s", m.Name(), loaded.Name())
		}
		for _, s := range test.Samples {
			want, err := m.Predict(s.Features)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Predict(s.Features)
			if err != nil {
				t.Fatalf("%s loaded Predict: %v", m.Name(), err)
			}
			if got != want {
				t.Fatalf("%s: prediction changed after round trip", m.Name())
			}
		}
		if dt, ok := m.(*DecisionTree); ok {
			if got, want := loaded.(*DecisionTree).Depth(), dt.Depth(); got != want {
				t.Errorf("DTC depth changed: %d -> %d", want, got)
			}
		}
	}
}

// savedFormat holds one small model of each kind exactly as an earlier
// release of this package saved them (fitted on xorDataset(60, 3)). Bundles
// already on disk use this format, so loading and re-saving must reproduce
// it byte for byte.
var savedFormat = map[string]string{
	"DTC":  `{"tree":{"nodes":[{"f":0,"t":0.2542130593072119,"l":1,"r":4},{"f":1,"t":0.3827357793410437,"l":2,"r":3},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1,"c":1},{"f":1,"t":0.357693631484593,"l":5,"r":8},{"f":0,"t":0.5295478078344488,"l":6,"r":7},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1,"c":1},{"f":0,"t":0.5097528096409528,"l":9,"r":10},{"f":-1,"l":-1,"r":-1,"c":1},{"f":-1,"l":-1,"r":-1}]},"n_feat":2}`,
	"RF":   `{"trees":[{"nodes":[{"f":0,"t":0.8139344094690205,"l":1,"r":4},{"f":1,"t":0.8334510320372092,"l":2,"r":3},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1},{"f":0,"t":0.9303394436092522,"l":5,"r":6},{"f":-1,"l":-1,"r":-1,"c":1},{"f":-1,"l":-1,"r":-1,"c":1}]},{"nodes":[{"f":0,"t":0.17446035757698125,"l":1,"r":2},{"f":-1,"l":-1,"r":-1,"c":1},{"f":0,"t":0.9555404859247401,"l":3,"r":4},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1,"c":1}]}],"n_feat":2,"n_class":2}`,
	"GBDT": `{"rounds":[[{"nodes":[{"f":0,"t":0.2542130593072119,"l":1,"r":4},{"f":1,"t":0.3827357793410437,"l":2,"r":3},{"f":-1,"l":-1,"r":-1,"v":1.0333333333333334},{"f":-1,"l":-1,"r":-1,"v":-0.9687500000000002},{"f":1,"t":0.357693631484593,"l":5,"r":6},{"f":-1,"l":-1,"r":-1,"v":-0.4976715686274512},{"f":-1,"l":-1,"r":-1,"v":0.5166666666666663}]},{"nodes":[{"f":0,"t":0.2542130593072119,"l":1,"r":4},{"f":1,"t":0.3827357793410437,"l":2,"r":3},{"f":-1,"l":-1,"r":-1,"v":-1.0333333333333334},{"f":-1,"l":-1,"r":-1,"v":0.9687500000000002},{"f":1,"t":0.357693631484593,"l":5,"r":6},{"f":-1,"l":-1,"r":-1,"v":0.4976715686274512},{"f":-1,"l":-1,"r":-1,"v":-0.5166666666666663}]}]],"prior":[-0.7259370033829362,-0.661398482245365],"n_feat":2,"n_class":2,"lr":0.2}`,
}

func TestSavedFormatStable(t *testing.T) {
	for kind, payload := range savedFormat {
		m, err := LoadModel(&SavedModel{Kind: kind, Model: []byte(payload)})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := mustMarshal(t, m); string(got) != payload {
			t.Errorf("%s: re-saved as\n%s\nwant\n%s", kind, got, payload)
		}
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	for _, m := range allModels() {
		if _, err := SaveModel(m); err == nil {
			t.Errorf("%s: saving an unfitted model succeeded", m.Name())
		}
	}
}

func TestLoadUnknownKind(t *testing.T) {
	if _, err := LoadModel(&SavedModel{Kind: "SVM", Model: []byte("{}")}); err == nil {
		t.Error("unknown kind loaded")
	}
}

// corruptPayloads are saved models LoadModel must reject: structurally
// empty models, and trees whose prediction walk could not finish safely.
var corruptPayloads = []struct{ name, kind, payload string }{
	{"empty DTC tree", "DTC", `{"tree":{"nodes":[]},"n_feat":2}`},
	{"forest without trees", "RF", `{"trees":[],"n_feat":2,"n_class":2}`},
	{"GBDT without priors", "GBDT", `{"rounds":[],"prior":[],"n_feat":2,"n_class":2,"lr":0.2}`},
	{"dangling child index", "DTC", `{"tree":{"nodes":[{"f":0,"t":1,"l":5,"r":-1}]},"n_feat":1}`},
	{"half-split node", "DTC", `{"tree":{"nodes":[{"f":0,"t":1,"l":1,"r":-1},{"f":-1,"c":0,"l":-1,"r":-1}]},"n_feat":1}`},
	{"self-referencing node", "DTC", `{"tree":{"nodes":[{"f":0,"t":1,"l":0,"r":0}]},"n_feat":1}`},
	{"split feature beyond n_feat", "DTC", `{"tree":{"nodes":[{"f":2,"t":1,"l":1,"r":2},{"f":-1,"c":0,"l":-1,"r":-1},{"f":-1,"c":1,"l":-1,"r":-1}]},"n_feat":2}`},
	{"RF leaf label beyond n_class", "RF", `{"trees":[{"nodes":[{"f":-1,"c":2,"l":-1,"r":-1}]}],"n_feat":2,"n_class":2}`},
	{"GBDT n_class below priors", "GBDT", `{"rounds":[[{"nodes":[{"f":-1,"v":1,"l":-1,"r":-1}]},{"nodes":[{"f":-1,"v":1,"l":-1,"r":-1}]}]],"prior":[0,0],"n_feat":1,"n_class":1,"lr":0.2}`},
}

func TestLoadCorruptPayloads(t *testing.T) {
	for _, c := range corruptPayloads {
		if _, err := LoadModel(&SavedModel{Kind: c.kind, Model: []byte(c.payload)}); err == nil {
			t.Errorf("%s: corrupt %s payload loaded", c.name, c.kind)
		}
	}
}

// numFeatures returns a loaded tree model's feature-vector length.
func numFeatures(c Classifier) int {
	switch m := c.(type) {
	case *DecisionTree:
		return m.nfeat
	case *RandomForest:
		return m.nfeat
	case *GBDT:
		return m.nfeat
	}
	return 0
}

// maxFuzzFeatures caps the probe vectors FuzzLoadModel builds; a payload
// may declare any n_feat, and longer models are probed only for the
// length check.
const maxFuzzFeatures = 1 << 12

// FuzzLoadModel checks LoadModel against arbitrary payloads: it either
// returns an error, or a model whose Predict on n_feat-long vectors returns
// without panicking and whose JSON is stable under a further round trip.
func FuzzLoadModel(f *testing.F) {
	ds := synthDataset(120, 21)
	for _, m := range []Classifier{
		NewDecisionTree(TreeConfig{Seed: 1, MaxDepth: 4}),
		NewRandomForest(ForestConfig{NumTrees: 3, Seed: 1, Tree: TreeConfig{MaxDepth: 3}}),
		NewGBDT(GBDTConfig{NumRounds: 2, Seed: 1, Tree: TreeConfig{MaxDepth: 2}}),
	} {
		if err := m.Fit(ds); err != nil {
			f.Fatal(err)
		}
		saved, err := SaveModel(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(saved.Kind, []byte(saved.Model))
	}
	for _, c := range corruptPayloads {
		f.Add(c.kind, []byte(c.payload))
	}
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		m, err := LoadModel(&SavedModel{Kind: kind, Model: payload})
		if err != nil {
			return
		}
		nfeat := numFeatures(m)
		if _, err := m.Predict(make([]float64, min(nfeat+1, maxFuzzFeatures+1))); !errors.Is(err, ErrBadFeatureLen) {
			t.Fatalf("wrong-length vector: err %v, want ErrBadFeatureLen", err)
		}
		if nfeat <= maxFuzzFeatures {
			xs := make([][]float64, 4)
			for i, v := range []float64{0, math.Inf(-1), math.Inf(1), math.NaN()} {
				xs[i] = make([]float64, nfeat)
				for j := range xs[i] {
					xs[i][j] = v
				}
				if _, err := m.Predict(xs[i]); err != nil {
					t.Fatalf("Predict: %v", err)
				}
			}
			if err := m.(BatchPredictor).PredictBatch(xs, make([]int, len(xs))); err != nil {
				t.Fatalf("PredictBatch: %v", err)
			}
		}
		first := mustMarshal(t, m)
		saved, err := SaveModel(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := LoadModel(saved)
		if err != nil {
			t.Fatalf("re-load of a loaded model: %v", err)
		}
		if second := mustMarshal(t, again); !bytes.Equal(first, second) {
			t.Fatalf("JSON changed on a second round trip:\n%s\n%s", first, second)
		}
	})
}
