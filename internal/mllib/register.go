package mllib

import "blaze/internal/storage"

// init registers the workload value types with the gob codec so
// real-bytes stores can round-trip real partitions.
func init() {
	storage.RegisterValueType(LabeledPoint{})
	storage.RegisterValueType(Vector{})
	storage.RegisterValueType(gradStats{})
	storage.RegisterValueType(sumCount{})
	storage.RegisterValueType(binStats{})
	storage.RegisterValueType(GBTModel{})
	storage.RegisterValueType([]float64{})
}
