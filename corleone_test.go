package corleone

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateAndRun(t *testing.T) {
	ds := GenerateDataset(ScaledProfile(RestaurantsProfile, 0.4))
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(ds, Oracle(ds.Truth), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.True.F1 < 85 {
		t.Errorf("F1 = %.1f", res.True.F1)
	}
	m := EvaluateMatches(res.Matches, ds.Truth)
	if m.F1 != res.True.F1 {
		t.Errorf("EvaluateMatches %.1f != engine-reported %.1f", m.F1, res.True.F1)
	}
}

func TestSimulatedCrowdConstructor(t *testing.T) {
	truth := NewGroundTruth([]Pair{P(0, 0)})
	c := NewSimulatedCrowd(truth, 0, 1)
	if !c.Answer(P(0, 0)) || c.Answer(P(0, 1)) {
		t.Error("simulated crowd with zero error must echo the truth")
	}
}

func TestLoadDatasetCSV(t *testing.T) {
	csvA := "name,city\njoe's pizza,new york\nsushi bar,chicago\nthai garden,boston\ncafe rio,austin\n"
	csvB := "name,city\nJoe's Pizza,NYC\nThai Garden,Boston\nburger spot,dallas\nnoodle house,seattle\n"
	schema := Schema{
		{Name: "name", Type: AttrString},
		{Name: "city", Type: AttrString},
	}
	seeds := []Labeled{
		{Pair: P(0, 0), Match: true},
		{Pair: P(2, 1), Match: true},
		{Pair: P(1, 0), Match: false},
		{Pair: P(3, 2), Match: false},
	}
	ds, err := LoadDatasetCSV("restaurants", strings.NewReader(csvA),
		strings.NewReader(csvB), schema, "same restaurant?", seeds)
	if err != nil {
		t.Fatal(err)
	}
	if ds.A.Len() != 4 || ds.B.Len() != 4 {
		t.Errorf("sizes %d/%d", ds.A.Len(), ds.B.Len())
	}
	if ds.A.Schema[0].Type != AttrString {
		t.Error("schema hint lost")
	}
	// Bad seeds are rejected.
	_, err = LoadDatasetCSV("x", strings.NewReader(csvA), strings.NewReader(csvB),
		schema, "", seeds[:2])
	if err == nil {
		t.Error("expected seed validation error")
	}
}

func TestLoadDatasetCSVBadInput(t *testing.T) {
	if _, err := LoadDatasetCSV("x", strings.NewReader(""), strings.NewReader(""),
		nil, "", nil); err == nil {
		t.Error("expected error for empty CSV")
	}
}

func TestLoadDatasetCSVInfersSchema(t *testing.T) {
	csvA := "name,price,code\nwidget one,19.99,WX100A\ngadget two,5.00,GD200B\nthing three,7.25,TH300C\nitem four,12.00,IT400D\n"
	csvB := "name,price,code\nWidget One,20.99,wx100a\nItem Four,11.50,IT400D\nother five,3.10,OT500E\nmore six,8.00,MO600F\n"
	seeds := []Labeled{
		{Pair: P(0, 0), Match: true},
		{Pair: P(3, 1), Match: true},
		{Pair: P(1, 0), Match: false},
		{Pair: P(2, 3), Match: false},
	}
	ds, err := LoadDatasetCSV("widgets", strings.NewReader(csvA),
		strings.NewReader(csvB), nil, "same item?", seeds)
	if err != nil {
		t.Fatal(err)
	}
	if ds.A.Schema[1].Type != AttrNumeric {
		t.Errorf("price inferred %v, want numeric", ds.A.Schema[1].Type)
	}
	if ds.A.Schema[2].Type != AttrCategorical {
		t.Errorf("code inferred %v, want categorical", ds.A.Schema[2].Type)
	}
}

func TestModelSaveLoadMatch(t *testing.T) {
	// Train on one "category", save the model, apply to a fresh dataset
	// from the same generator — the Example 3.1 reuse scenario.
	train := GenerateDataset(ScaledProfile(RestaurantsProfile, 0.4))
	res, err := Run(train, Oracle(train.Truth), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	model, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := ScaledProfile(RestaurantsProfile, 0.3)
	fresh.Seed = 777
	ds2 := GenerateDataset(fresh)
	pred, err := model.Match(ds2)
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluateMatches(pred, ds2.Truth)
	if m.F1 < 80 {
		t.Errorf("reused model F1 = %.1f on fresh data", m.F1)
	}

	// The names the model was saved with are its contract: a renamed
	// attribute and another schema are errors, not mispredictions.
	renamed := GenerateDataset(fresh)
	schema := append(Schema(nil), renamed.A.Schema...)
	schema[0].Name += "_renamed"
	renamed.A.Schema, renamed.B.Schema = schema, schema
	if _, err := model.Match(renamed); err == nil {
		t.Error("model applied to a renamed attribute without an error")
	}
	if _, err := model.Match(GenerateDataset(ScaledProfile(CitationsProfile, 0.02))); err == nil {
		t.Error("Restaurants model applied to Citations without an error")
	}
}
