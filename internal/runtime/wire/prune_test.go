package wire_test

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/jaql"
	"dyno/internal/runtime/wire"
)

// TestPruneCodecMatchesPruner sends a live-column map through a task
// frame and requires the decoded map to prune rows exactly as the
// original does under jaql.NewPruner, the one pruner both backends
// run.
func TestPruneCodecMatchesPruner(t *testing.T) {
	live := map[string]map[string]bool{
		"l": {"l_orderkey": true, "l_discount": true},
		"o": nil, // fully live: must be omitted, pruner keeps it whole
	}
	frame, err := wire.EncodeTaskBatch([]*wire.Task{{Task: "t", Kind: "map", Op: &wire.OpSpec{Kind: "scan", Prune: wire.EncodePrune(live)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer frame.Close()
	back, err := wire.DecodeTaskBatch(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	prune := jaql.NewPruner(wire.DecodeLive(back[0].Op.Prune))
	row := data.Object(
		data.Field{Name: "l", Value: data.Object(
			data.Field{Name: "l_orderkey", Value: data.Int(1)},
			data.Field{Name: "l_discount", Value: data.Double(0.04)},
			data.Field{Name: "l_comment", Value: data.String("x")},
		)},
		data.Field{Name: "o", Value: data.Object(data.Field{Name: "o_comment", Value: data.String("y")})},
	)
	want := data.Object(
		data.Field{Name: "l", Value: data.Object(
			data.Field{Name: "l_orderkey", Value: data.Int(1)},
			data.Field{Name: "l_discount", Value: data.Double(0.04)},
		)},
		data.Field{Name: "o", Value: data.Object(data.Field{Name: "o_comment", Value: data.String("y")})},
	)
	if got := prune(row); !data.Equal(got, want) {
		t.Fatalf("decoded prune map: %s != %s", got, want)
	}
	if got := jaql.NewPruner(live)(row); !data.Equal(got, want) {
		t.Fatalf("original prune map: %s != %s", got, want)
	}
	if wire.DecodeLive(wire.EncodePrune(nil)) != nil {
		t.Fatal("pruning off must decode to a nil live map")
	}
}
