package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dyno/internal/data"
	"dyno/internal/runtime/wire"
)

// TestDumpBlockFile: a mirrored block file prints one record per line,
// each exactly its data.Value rendering; a file that is not a frame is
// refused.
func TestDumpBlockFile(t *testing.T) {
	recs := []data.Value{
		data.Object(data.Field{Name: "k", Value: data.Int(1)}, data.Field{Name: "s", Value: data.String("a\x00b")}),
		data.Null(),
		data.Array(data.Double(math.Copysign(0, -1)), data.Bool(true)),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "b0.blk")
	if err := wire.WriteBlockFileBin(path, recs); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := dump(path, &out); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, r := range recs {
		want.WriteString(r.String() + "\n")
	}
	if out.String() != want.String() {
		t.Fatalf("dump printed:\n%s\nwant:\n%s", out.String(), want.String())
	}

	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte(`["i","1"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dump(junk, &out); err == nil {
		t.Fatal("dump accepted a file that is not a wire frame")
	}
}
