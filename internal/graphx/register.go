package graphx

import "blaze/internal/storage"

// init registers the workload value types with the gob codec so
// real-bytes stores (and any external serialization of blocks) can
// round-trip real partitions.
func init() {
	storage.RegisterValueType(AdjList{})
	storage.RegisterValueType(VertexRank{})
	storage.RegisterValueType(VertexLabel{})
	storage.RegisterValueType(RatingList{})
	storage.RegisterValueType(Factors{})
	storage.RegisterValueType([]any{})
	storage.RegisterValueType(float64(0))
	storage.RegisterValueType(int64(0))
}
