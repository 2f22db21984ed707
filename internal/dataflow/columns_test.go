package dataflow_test

import (
	"reflect"
	"testing"

	"blaze/internal/dataflow"
)

// TestColumnSizeIdentity is the sizing identity for every registered
// column, the workload packages' included, as built and as decoded: a
// column's SizeBytes is the sum of ValueSize over its boxed values, and a
// batch's EstimateSize is EstimateRecords of its rows.
func TestColumnSizeIdentity(t *testing.T) {
	for name, built := range typedBatches() {
		decoded, err := dataflow.DecodeBlock(encodeTyped(t, built))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for form, b := range map[string]*dataflow.Batch{"built": built, "decoded": decoded} {
			if b.Col != nil {
				var sum int64
				for i := 0; i < b.Len(); i++ {
					sum += dataflow.ValueSize(b.Col.Value(i))
				}
				if got := b.Col.SizeBytes(); got != sum {
					t.Errorf("%s (%s): SizeBytes=%d, ValueSize of the values sums to %d", name, form, got, sum)
				}
			}
			if got, want := b.EstimateSize(), dataflow.EstimateRecords(b.Records()); got != want {
				t.Errorf("%s (%s): EstimateSize=%d, EstimateRecords=%d", name, form, got, want)
			}
		}
	}
}

// labels is a value type registered as a kind: a weight (the lead) and a
// list of labels.
type labels struct {
	W  float64
	Of []int64
}

func (l labels) SizeBytes() int64 { return 40 + 8*int64(len(l.Of)) }

type labelsKind struct{}

func (labelsKind) Name() string                      { return "dataflow_test.labels" }
func (labelsKind) HasLead() bool                     { return true }
func (labelsKind) Box(w float64, s []int64) labels   { return labels{W: w, Of: s} }
func (labelsKind) Unbox(v labels) (float64, []int64) { return v.W, v.Of }

func init() { dataflow.RegisterKind(labelsKind{}) }

// TestRegisteredColumnSelected: a registered kind's values are held in
// its Ragged column and travel as a typed block; a value of another type
// does not join the column, and rows that mix it in stay in row form.
func TestRegisteredColumnSelected(t *testing.T) {
	recs := []dataflow.Record{{Key: 1, Value: labels{W: 0.5, Of: []int64{3, 4}}}, {Key: 2, Value: labels{W: 2}}}
	b := dataflow.FromRecords(recs)
	if _, ok := b.Col.(*dataflow.Ragged[int64, labels, labelsKind]); !ok {
		t.Fatalf("registered kind not selected, got %T", b.Col)
	}
	back, err := dataflow.DecodeBlock(encodeTyped(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Records(); !reflect.DeepEqual(got, recs) {
		t.Errorf("block round trip gives %+v, want %+v", got, recs)
	}
	if b.Append(3, "x") {
		t.Errorf("a string joined a %T", b.Col)
	}
	if got := b.Records(); !reflect.DeepEqual(got, recs) {
		t.Errorf("after a refused Append: %+v, want %+v", got, recs)
	}
	b.Release()
	mixed := append(recs, dataflow.Record{Key: 3, Value: "x"})
	m := dataflow.FromRecords(mixed)
	if !m.RowForm() {
		t.Errorf("mixed-type records gave a %T, want row form", m.Col)
	}
	if got := m.Records(); !reflect.DeepEqual(got, mixed) || m.EstimateSize() != dataflow.EstimateRecords(mixed) {
		t.Errorf("mixed rows: %+v (size %d), want %+v (size %d)", got, m.EstimateSize(), mixed, dataflow.EstimateRecords(mixed))
	}
}
