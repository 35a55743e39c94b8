package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// mirror is the benchmark's own copy of the live set: what the program
// under test must hold if it applied every acknowledged mutation. The
// recall of a mutated index is judged against brute force over it.
type mirror struct {
	ids  []int32
	rows [][]float64
	pos  map[int32]int // id -> index into ids/rows
}

// newMirror starts from the build rows, whose ids are their indexes.
func newMirror(points [][]float64) *mirror {
	m := &mirror{
		ids:  make([]int32, len(points)),
		rows: make([][]float64, len(points)),
		pos:  make(map[int32]int, len(points)),
	}
	for i, p := range points {
		m.ids[i] = int32(i)
		m.rows[i] = p
		m.pos[int32(i)] = i
	}
	return m
}

func (m *mirror) len() int { return len(m.ids) }

func (m *mirror) live(id int32) bool {
	_, ok := m.pos[id]
	return ok
}

// insert records an acknowledged insert under the id the program
// assigned.
func (m *mirror) insert(id int32, p []float64) error {
	if m.live(id) {
		return fmt.Errorf("mirror: id %d assigned twice", id)
	}
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.rows = append(m.rows, p)
	return nil
}

// pick maps a schedule draw to a uniformly chosen live id.
func (m *mirror) pick(draw uint64) int32 { return m.ids[draw%uint64(len(m.ids))] }

// remove records an acknowledged delete.
func (m *mirror) remove(id int32) error {
	i, ok := m.pos[id]
	if !ok {
		return fmt.Errorf("mirror: delete of id %d, which is not live", id)
	}
	last := len(m.ids) - 1
	m.ids[i], m.rows[i] = m.ids[last], m.rows[last]
	m.pos[m.ids[i]] = i
	m.ids, m.rows = m.ids[:last], m.rows[:last]
	delete(m.pos, id)
	return nil
}

// truth is the exact top-k of every query over the live set.
func (m *mirror) truth(queries [][]float64, k int) ([][]metrics.Neighbor, error) {
	gt, err := dataset.GroundTruth(m.rows, queries, k)
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Neighbor, len(gt))
	for qi, nn := range gt {
		out[qi] = make([]metrics.Neighbor, len(nn))
		for i, n := range nn {
			out[qi][i] = metrics.Neighbor{ID: m.ids[n.ID], Dist: n.Dist}
		}
	}
	return out, nil
}

// score is the judge: mean recall@k (Eq. 12) and mean overall ratio
// (Eq. 11) of the returned lists against the exact ones.
func score(results, truth [][]metrics.Neighbor) (recall, ratio float64, err error) {
	if len(results) != len(truth) || len(truth) == 0 {
		return 0, 0, fmt.Errorf("score: %d result lists for %d truths", len(results), len(truth))
	}
	for i := range truth {
		rc, err := metrics.Recall(results[i], truth[i])
		if err != nil {
			return 0, 0, err
		}
		rt, err := metrics.OverallRatio(results[i], truth[i])
		if err != nil {
			return 0, 0, err
		}
		recall += rc
		ratio += rt
	}
	n := float64(len(truth))
	return recall / n, ratio / n, nil
}
