package core

// Test helpers over the published view.

// point resolves a live id to its vector in the current view.
func (ix *Index) point(id int32) []float64 {
	v := ix.view.Load()
	off := int(v.rowOf[id]) * ix.dim
	return v.flat[off : off+ix.dim]
}

// What EngineInfo reports of this shard, read from its current view.
func (ix *Index) dead() int             { return ix.view.Load().dead() }
func (ix *Index) deadFraction() float64 { return ix.view.Load().deadFraction() }
func (ix *Index) tailFraction() float64 { return ix.view.Load().tailFraction() }
func (ix *Index) compactions() int64    { return ix.view.Load().compactions }

// republish publishes the writer's store and tree again, for tests that
// swap one of them by hand.
func (ix *Index) republish() {
	cur := ix.view.Load()
	ix.publish(cur.rowOf, cur.distCDF, cur.compactions)
}
