package main

import (
	"fmt"
	"time"
)

// mutator applies the seeded mutation schedule to a target and keeps
// the mirror in step with every acknowledged operation. One goroutine
// owns it, so the ids the program assigns — and with them the delete
// victims — are a function of the seed alone.
type mutator struct {
	t    target
	mir  *mirror
	in   *inputs
	next int // next schedule op

	inserts  []sample // latency of each acknowledged insert
	deletes  []sample
	lagMS    []float64 // open loop: how late each op was sent
	stallMS  float64   // worst latency of any op, compactions included
	compacts int
	issued   int
	failed   int
	firstErr error
}

func newMutator(t target, mir *mirror, in *inputs) *mutator {
	return &mutator{t: t, mir: mir, in: in}
}

// remaining is the number of schedule ops not yet applied.
func (m *mutator) remaining() int { return m.in.mutations() - m.next }

func (m *mutator) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// step applies schedule op m.next: even ops insert, odd ops delete a
// uniformly drawn live id.
func (m *mutator) step() (insert bool, err error) {
	i := m.next
	m.next++
	m.issued++
	if i%2 == 0 {
		p := m.in.inserts[i/2]
		id, err := m.t.insert(p)
		if err != nil {
			return true, fmt.Errorf("insert %d: %w", i, err)
		}
		return true, m.mir.insert(id, p)
	}
	id := m.mir.pick(m.in.picks[i/2])
	if err := m.t.remove(id); err != nil {
		return false, fmt.Errorf("delete %d (id %d): %w", i, id, err)
	}
	return false, m.mir.remove(id)
}

// run applies count ops. With rate > 0 it is an open loop: op j is due
// at j/rate seconds whether or not earlier ops have finished, and its
// latency counts from that due time, so a stall is charged to every op
// it delays. With rate == 0 it is a closed loop: each op is due when
// the previous one returns. compactEvery > 0 compacts after every
// compactEvery-th op; the compaction delays the ops behind it like any
// other stall. Samples are stamped with offsets from epoch.
func (m *mutator) run(epoch time.Time, count int, rate float64, compactEvery int) {
	start := time.Now()
	for j := 0; j < count && m.remaining() > 0; j++ {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			m.lagMS = append(m.lagMS, ms(time.Since(due)))
		}
		insert, err := m.step()
		done := time.Now()
		if err != nil {
			m.fail(err)
			continue
		}
		s := sample{at: done.Sub(epoch), lat: done.Sub(due)}
		if insert {
			m.inserts = append(m.inserts, s)
		} else {
			m.deletes = append(m.deletes, s)
		}
		m.stallMS = max(m.stallMS, ms(s.lat))
		if compactEvery > 0 && (j+1)%compactEvery == 0 {
			m.issued++
			t0 := time.Now()
			if err := m.t.compact(); err != nil {
				m.fail(fmt.Errorf("compact: %w", err))
				continue
			}
			m.compacts++
			m.stallMS = max(m.stallMS, ms(time.Since(t0)))
		}
	}
}

// checkLive is the gate that the program and the mirror agree on how
// many points are live after everything acknowledged was applied.
func (m *mutator) checkLive() error {
	got, err := m.t.live()
	if err != nil {
		return err
	}
	if got != m.mir.len() {
		return fmt.Errorf("program reports %d live points, the mirror holds %d", got, m.mir.len())
	}
	return nil
}

// phase applies count ops to t (see run) and returns the insert and
// delete samples of this phase alone.
func (m *mutator) phase(t target, count int, rate float64, compactEvery int) (ins, del []sample) {
	m.t = t
	i0, d0 := len(m.inserts), len(m.deletes)
	m.run(time.Now(), count, rate, compactEvery)
	return m.inserts[i0:], m.deletes[d0:]
}
