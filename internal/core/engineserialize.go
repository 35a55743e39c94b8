package core

import "io"

// WriteTo serializes the engine as one PLS9 stream (see serialize.go):
// the header, then each shard's body in shard order, so a 1-shard
// engine writes exactly what Index.WriteTo writes. Each shard is written
// from one view; like queries, serialization never blocks writers and
// is never blocked by them.
func (e *Engine) WriteTo(w io.Writer) (int64, error) { return writeStream(w, e.shards) }

// LoadEngine deserializes an engine written with Engine.WriteTo or
// Index.WriteTo, or any older stream: a PLS5 container loads with its
// shards, every other stream as a 1-shard engine.
func LoadEngine(r io.Reader) (*Engine, error) {
	shards, err := load(r)
	if err != nil {
		return nil, err
	}
	return newEngine(shards)
}
