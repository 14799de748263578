// Command dynoframe prints a binary wire frame in human-readable form:
// one line per block record, task, result or shuffle pair, each the
// data.Value.String() rendering. It sniffs the frame kind from the
// magic (DYB1 block, DYT1 task batch, DYR1 result batch, DYS1 shuffle).
//
// Usage:
//
//	dynoframe FILE
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"dyno/internal/data"
	"dyno/internal/runtime/wire"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: dynoframe FILE")
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	if err := dump(os.Args[1], out); err != nil {
		fmt.Fprintln(os.Stderr, "dynoframe:", err)
		os.Exit(1)
	}
	out.Flush()
}

// dump decodes the frame in path and writes one rendered value per line.
func dump(path string, w io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var vals []data.Value
	switch string(b[:min(len(b), 4)]) {
	case "DYB1":
		vals, err = wire.DecodeBlock(b)
	case "DYS1":
		var pairs []wire.KV
		pairs, err = wire.DecodeShuffle(b)
		vals = kvs(pairs)
	case "DYT1":
		var tasks []*wire.Task
		tasks, err = wire.DecodeTaskBatch(b)
		for _, t := range tasks {
			fetches := make([]data.Value, len(t.Fetches))
			for i, f := range t.Fetches {
				fetches[i] = obj("url", data.String(f.URL), "id", data.String(f.ID), "part", data.Int(int64(f.Part)), "pairs", data.Array(kvs(f.Pairs)...))
			}
			vals = append(vals, obj("job", data.String(t.Job), "task", data.String(t.Task), "kind", data.String(t.Kind),
				"block", data.String(t.Block), "shuffleId", data.String(t.ShuffleID), "fetches", data.Array(fetches...)))
		}
	case "DYR1":
		var results []*wire.TaskResult
		results, err = wire.DecodeResultBatch(b)
		for _, r := range results {
			parts := make([]data.Value, len(r.Pairs))
			for i, p := range r.Pairs {
				parts[i] = data.Array(kvs(p)...)
			}
			vals = append(vals, obj("err", data.String(r.Err), "rows", data.Array(r.Rows...), "pairs", data.Array(parts...)))
		}
	default:
		return fmt.Errorf("%s: not a wire frame (magic %q)", path, b[:min(len(b), 4)])
	}
	if err != nil {
		return err
	}
	for _, v := range vals {
		fmt.Fprintln(w, v.String())
	}
	return nil
}

func kvs(pairs []wire.KV) []data.Value {
	out := make([]data.Value, len(pairs))
	for i, kv := range pairs {
		out[i] = obj("key", kv.Key, "tag", data.String(kv.Tag), "rec", kv.Rec)
	}
	return out
}

// obj builds an object from alternating field names and values.
func obj(kv ...any) data.Value {
	fields := make([]data.Field, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		fields = append(fields, data.Field{Name: kv[i].(string), Value: kv[i+1].(data.Value)})
	}
	return data.Object(fields...)
}
