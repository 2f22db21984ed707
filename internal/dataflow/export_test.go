package dataflow

// FloatsKind flattens []float64 values. No workload holds a bare
// []float64 in a flat column (its values take the gob fallback), but it
// is the plainest Ragged kind, so the tests register it: a []float64
// partition is a Ragged column in this package's test binary.
type FloatsKind struct{}

func (FloatsKind) Name() string                            { return "floats" }
func (FloatsKind) HasLead() bool                           { return false }
func (FloatsKind) Box(_ float64, span []float64) []float64 { return span }
func (FloatsKind) Unbox(v []float64) (float64, []float64)  { return 0, v }

func init() { RegisterKind(FloatsKind{}) }
