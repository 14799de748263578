// Package wire is the serialization layer of the multi-process
// execution backend: the binary frame codec for data values,
// (uncompiled) expressions, task and result batches, block mirrors and
// shuffle partitions; and a declarative operator spec covering every
// job shape the compiler emits, which workers decode back into the
// compiler's own operator builders (jaql.DecodeOp).
//
// Every value crosses the wire as exact binary (IEEE-754 bits for
// doubles, varints for ints, field order preserved), so a value
// shipped to a worker and back compares data.Equal to the original and
// renders the identical String() image — the property the differential
// contract (same rows on both backends) rests on.
package wire

import (
	"encoding/json"
	"fmt"
	"slices"

	"dyno/internal/data"
	"dyno/internal/mapreduce"
)

// The controller/worker HTTP protocol. Workers register with the
// controller and heartbeat; the controller dispatches tasks to each
// worker's POST /tasks as batched binary frames (Content-Type
// ContentTypeBinary), and reduce tasks pull their shuffle input from
// the producing workers' GET /shuffle as binary frames too. Only the
// control plane (register, heartbeat, shuffle GC, status) is JSON.

// ContentTypeBinary marks a binary-frame request or response body.
const ContentTypeBinary = "application/x-dyno-frame"

// Caps is what a worker announces at registration. The controller
// refuses a worker that does not speak the whole data plane.
type Caps struct {
	// Codecs lists supported payload codecs; CodecBinary is required.
	Codecs []string `json:"codecs,omitempty"`
	// Batch reports support for the batched /tasks endpoint.
	Batch bool `json:"batch,omitempty"`
	// PeerShuffle reports support for worker-to-worker shuffle: the
	// worker can retain map outputs in its shuffle registry, serve
	// them to peers from GET /shuffle, and assemble reduce inputs from
	// Fetches refs (local registry first, then HTTP from the producing
	// peer).
	PeerShuffle bool `json:"peerShuffle,omitempty"`
}

// Validate reports why a worker announcing c cannot join the fleet:
// the data plane has one codec, one dispatch endpoint and one shuffle
// path, and a worker must speak all three.
func (c Caps) Validate() error {
	if !slices.Contains(c.Codecs, CodecBinary) || !c.Batch || !c.PeerShuffle {
		return fmt.Errorf("wire: worker capabilities %+v lack the binary codec, batched dispatch or peer shuffle", c)
	}
	return nil
}

// RegisterRequest announces a worker to the controller.
type RegisterRequest struct {
	// URL is the worker's base URL (e.g. http://127.0.0.1:9001).
	URL  string `json:"url"`
	Caps Caps   `json:"caps,omitempty"`
}

// RegisterResponse configures the worker. UDF carries the
// controller's tpch.UDFParams as raw JSON (wire stays below the tpch
// package in the import graph; both ends marshal the same struct).
type RegisterResponse struct {
	ID              int             `json:"id"`
	HeartbeatMillis int             `json:"heartbeatMillis"`
	UDF             json.RawMessage `json:"udf,omitempty"`
}

// HeartbeatRequest keeps a registration alive.
type HeartbeatRequest struct {
	ID int `json:"id"`
}

// ShuffleGCRequest asks a worker to drop retained shuffle outputs by
// ID (the controller broadcasts one per retired job, to every worker,
// so hedged losers' orphaned registrations are collected too).
type ShuffleGCRequest struct {
	IDs []string `json:"ids"`
}

// ShufflePart is a per-partition digest of retained map output. The
// worker computes it with mapreduce.Digest, the controller's own
// arithmetic, so the controller can account shuffle volume without
// ever seeing the pairs.
type ShufflePart = mapreduce.ShufflePart

// KV is one shuffled record as frames carry it: the engine's shuffle
// pair, without its normalized key (mapreduce.SortPairs restores it).
type KV = mapreduce.Pair

// ShuffleRef is one reduce-input segment, in map-output order. Either
// ID is set — the segment lives in the registry of the worker at URL
// under that shuffle ID (fetch partition Part) — or ID is empty and
// the pairs travel inline (segments recovered through the controller
// mirror after a peer died).
type ShuffleRef struct {
	URL   string
	ID    string
	Part  int
	Pairs []KV
}

// BuildRef describes one broadcast build side for a task: rebuild
// parameters plus the on-disk block files holding the (unfiltered)
// build input.
type BuildRef struct {
	Name   string    `json:"name"`
	Wrap   string    `json:"wrap,omitempty"`
	Filter *ExprSpec `json:"filter,omitempty"`
	Keys   []string  `json:"keys"`
	Blocks []string  `json:"blocks"`
	// Version distinguishes rebuilds of the same logical name across
	// job generations (workers cache built tables keyed by it).
	Version string `json:"version"`
}

// Task is one dispatched task. A map task of a reduce-bearing job
// retains its output on the worker (RetainShuffle) and answers with
// per-partition digests; a reduce task names its input segments in
// Fetches, which the worker assembles in order and sorts.
type Task struct {
	Job  string
	Task string
	Kind string // "map" | "reduce"
	Op   *OpSpec

	// Map tasks.
	InputIdx    int
	Block       string
	NumReducers int
	HasReduce   bool
	RunCombine  bool
	Builds      []BuildRef

	// Peer shuffle (map tasks). Only the controller's mirror recovery
	// re-run leaves RetainShuffle off, to get the pairs back inline.
	RetainShuffle bool
	ShuffleID     string
	ByteScale     float64

	// Reduce tasks.
	Partition int
	Fetches   []ShuffleRef
}

// TaskResult is a task's output. Pairs (one slice per partition) is
// set only for a map task run without RetainShuffle.
type TaskResult struct {
	Rows        []data.Value
	Pairs       [][]KV
	CPUMap      float64
	CPUTotal    float64
	CPUSeconds  float64
	Err         string
	Parts       []ShufflePart
	PeerBytes   int64
	PeerFetches int
	// Worker is stamped by the controller's dispatch loop with the URL
	// of the worker that answered (the peer holding any retained
	// shuffle output); it never travels on the wire.
	Worker string `json:"-"`
}
