package storage_test

// External-package test: compares the analytic size estimator against
// real encoded sizes for every exported value type the registered
// workloads cache (importing graphx and mllib runs their init-time
// registrations, exactly as the engine sees them). The estimator does not
// have to match the bytes at rest one for one — it models in-memory
// footprint — but it must stay within a small constant factor on
// realistic partitions so cost ordering between blocks is preserved.

import (
	"fmt"
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/graphx"
	"blaze/internal/mllib"
	"blaze/internal/storage"
)

// workloadPartitions builds one realistic partition per registered
// exported value type, sized like the evaluation workloads' blocks.
func workloadPartitions() map[string][]dataflow.Record {
	adj := func(n, deg int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			dsts := make([]int64, deg+i%5)
			for j := range dsts {
				dsts[j] = int64(i + j)
			}
			out[i] = dataflow.Record{Key: int64(i), Value: graphx.AdjList{Dsts: dsts}}
		}
		return out
	}
	ranks := func(n, deg int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			adj := make([]int64, deg)
			for j := range adj {
				adj[j] = int64(j)
			}
			out[i] = dataflow.Record{Key: int64(i), Value: graphx.VertexRank{Adj: adj, Rank: float64(i)}}
		}
		return out
	}
	labels := func(n, deg int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			adj := make([]int64, deg)
			for j := range adj {
				adj[j] = int64(j)
			}
			out[i] = dataflow.Record{Key: int64(i), Value: graphx.VertexLabel{Adj: adj, Label: int64(i)}}
		}
		return out
	}
	ratings := func(n, k int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			items := make([]int64, k)
			scores := make([]float64, k)
			for j := range items {
				items[j] = int64(j)
				scores[j] = float64(j) * 0.5
			}
			out[i] = dataflow.Record{Key: int64(i), Value: graphx.RatingList{Items: items, Scores: scores}}
		}
		return out
	}
	factors := func(n, rank int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			v := make([]float64, rank)
			for j := range v {
				v[j] = float64(i + j)
			}
			out[i] = dataflow.Record{Key: int64(i), Value: graphx.Factors{V: v}}
		}
		return out
	}
	points := func(n, dim int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			x := make([]float64, dim)
			for j := range x {
				x[j] = float64(i) + float64(j)*0.25
			}
			out[i] = dataflow.Record{Key: int64(i), Value: mllib.LabeledPoint{X: x, Y: float64(i % 2)}}
		}
		return out
	}
	vectors := func(n, dim int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			v := make([]float64, dim)
			for j := range v {
				v[j] = float64(i * j)
			}
			out[i] = dataflow.Record{Key: int64(i), Value: mllib.Vector{V: v}}
		}
		return out
	}
	model := func() []dataflow.Record {
		m := mllib.GBTModel{LearnRate: 0.1, Base: 0.5}
		for t := 0; t < 8; t++ {
			m.TreeSplits = append(m.TreeSplits, nil)
			m.TreeLeaves = append(m.TreeLeaves, map[int]float64{})
			for node := 4; node < 8; node++ {
				m.TreeLeaves[t][node] = float64(node)
			}
		}
		return []dataflow.Record{{Key: 0, Value: m}}
	}
	floats := func(n int) []dataflow.Record {
		out := make([]dataflow.Record, n)
		for i := range out {
			out[i] = dataflow.Record{Key: int64(i), Value: float64(i) * 1.5}
		}
		return out
	}
	return map[string][]dataflow.Record{
		"graphx.AdjList":     adj(200, 8),
		"graphx.VertexRank":  ranks(200, 8),
		"graphx.VertexLabel": labels(200, 3),
		"graphx.RatingList":  ratings(100, 12),
		"graphx.Factors":     factors(150, 8),
		"mllib.LabeledPoint": points(250, 16),
		"mllib.Vector":       vectors(100, 8),
		"mllib.GBTModel":     model(),
		"float64":            floats(300),
	}
}

// TestEstimateTracksGobOnWorkloadTypes (the name predates the typed
// codec) checks the analytic estimate against the real encoded size for
// each workload value type. A type with a flat column is stored as the
// same arrays the estimate counts — the estimate only adds the slice and
// interface headers the rows carry in memory — so it must land within
// [0.5, 3] of the real bytes. The gob fallback types keep the loose
// factor-6 band (plus slack for tiny partitions, where gob's one-time
// type descriptors dominate).
func TestEstimateTracksGobOnWorkloadTypes(t *testing.T) {
	for name, recs := range workloadPartitions() {
		t.Run(name, func(t *testing.T) {
			est := storage.EstimateRecords(recs)
			data, err := storage.EncodeRecords(recs)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			real := int64(len(data))
			ratio := float64(est) / float64(real)
			switch data[0] {
			case dataflow.BlockTyped:
				if ratio < 0.5 || ratio > 3 {
					t.Errorf("estimate %d vs typed block %d (ratio %.2f) outside [0.5, 3]", est, real, ratio)
				}
			default:
				if est < real/6 || est > real*6+1024 {
					t.Errorf("estimate %d vs real gob %d (ratio %.2f) out of band", est, real, ratio)
				}
			}
			t.Logf("marker %d: estimate %d, encoded %d, ratio %.2f", data[0], est, real, ratio)
		})
	}
}

// TestWorkloadTypesRoundTrip ensures every workload partition above
// survives the codec loss-free at the key level and record count (value
// equality is exercised by the real-bytes stores, end to end in
// TestRealBytesCodecOnRealWorkloads).
func TestWorkloadTypesRoundTrip(t *testing.T) {
	for name, recs := range workloadPartitions() {
		t.Run(name, func(t *testing.T) {
			data, err := storage.EncodeRecords(recs)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			back, err := storage.DecodeRecords(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(back) != len(recs) {
				t.Fatalf("%d records became %d", len(recs), len(back))
			}
			for i := range recs {
				if back[i].Key != recs[i].Key {
					t.Fatalf("key %d mismatch", i)
				}
				if fmt.Sprintf("%v", back[i].Value) != fmt.Sprintf("%v", recs[i].Value) {
					t.Fatalf("value %d mismatch:\n got %v\nwant %v", i, back[i].Value, recs[i].Value)
				}
			}
		})
	}
}
