package wire_test

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime/wire"
)

// TestTableProbeMatchesScanOrder sends a broadcast build ref through a
// task frame, rebuilds the table from the decoded ref over raw records
// split across blocks, the way a worker does, and requires duplicate
// keys to probe back in build scan order.
func TestTableProbeMatchesScanOrder(t *testing.T) {
	ref := wire.BuildRef{Name: "t", Wrap: "t", Keys: wire.EncodePaths([]data.Path{data.MustParsePath("t.k")}), Blocks: []string{"b0", "b1"}, Version: "v1"}
	frame, err := wire.EncodeTaskBatch([]*wire.Task{{Task: "t", Kind: "map", Builds: []wire.BuildRef{ref}}})
	if err != nil {
		t.Fatal(err)
	}
	defer frame.Close()
	back, err := wire.DecodeTaskBatch(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := back[0].Builds[0]
	b := mapreduce.Broadcast{Name: got.Name, Wrap: got.Wrap}
	if b.Filter, err = wire.DecodeExpr(got.Filter); err != nil {
		t.Fatal(err)
	}
	if b.KeyPaths, err = wire.DecodePaths(got.Keys); err != nil {
		t.Fatal(err)
	}

	recs := []data.Value{
		data.Object(data.Field{Name: "k", Value: data.Int(1)}, data.Field{Name: "v", Value: data.String("a")}),
		data.Object(data.Field{Name: "k", Value: data.Int(2)}, data.Field{Name: "v", Value: data.String("b")}),
		data.Object(data.Field{Name: "k", Value: data.Int(1)}, data.Field{Name: "v", Value: data.String("c")}),
	}
	tbl, _, err := mapreduce.BuildHashTable(nil, b, []*dfs.Block{dfs.NewBlock(recs[:2]), dfs.NewBlock(recs[2:])})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Probe(data.Int(1))
	if len(rows) != 2 {
		t.Fatalf("probe returned %d rows, want 2", len(rows))
	}
	if rows[0].FieldOr("t").FieldOr("v").Str() != "a" || rows[1].FieldOr("t").FieldOr("v").Str() != "c" {
		t.Fatalf("probe order not scan order: %v", rows)
	}
	if got := tbl.Probe(data.Int(3)); got != nil {
		t.Fatalf("probe of absent key returned %v", got)
	}
}
