package main

import (
	"sort"
	"strconv"
	"time"
)

// referenceSpeed is the probe speed, in units per second, of the shared
// 2-vCPU box the benchmark was sized on while it serves a workload.
// Every time a run reports is scaled to it (see probe), so on that box
// the scaled numbers read close to the raw ones.
const referenceSpeed = 4000

// probePause is how long the probe rests between two units: it costs a
// tenth of one core.
const probePause = 2 * time.Millisecond

// probeState is the probe's preallocated working set. A unit allocates
// nothing, so the generator's garbage collector neither slows it nor is
// triggered by it.
type probeState struct {
	keys  []string
	index map[string]int
	order []int
	buf   []byte
}

func newProbeState() *probeState {
	st := &probeState{index: map[string]int{}}
	for i := 0; i < 4096; i++ {
		k := "S" + strconv.Itoa(i%61) + ":M" + strconv.Itoa(i*7919%4096)
		st.keys = append(st.keys, k)
		st.index[k] = i
	}
	st.order = make([]int, len(st.keys))
	return st
}

// unit is one fixed piece of work of the kinds the server spends its
// time on: map lookups by string key over a working set larger than the
// L1 cache, sorting, number formatting and byte copying. It takes about
// a quarter of a millisecond.
func (st *probeState) unit() int {
	for i, k := range st.keys {
		st.order[i] = st.index[k] ^ (i * 2654435761 & 4095)
	}
	sort.Ints(st.order)
	st.buf = st.buf[:0]
	for _, v := range st.order[:512] {
		st.buf = strconv.AppendInt(st.buf, int64(v), 10)
		st.buf = append(st.buf, st.keys[v&4095]...)
	}
	return len(st.buf)
}

// probe measures how fast the machine is while something else is being
// timed. The box is a few cores of a shared host whose speed moves by
// ±20 % for seconds to minutes at a time (neighbours on the sibling
// hyperthreads); raw times of the same code differ by that much from one
// run to the next, and no statistic inside a run removes it. So beside
// the clients one goroutine times the same unit of work again and again
// until stop is closed, resting probePause between units, and reports
// the speed as units per second from the median unit time. A time
// measured over the same stretch is then scaled by speed/referenceSpeed
// (scaled), which takes the host's state out of it: it reads what the
// stretch would have taken at the reference speed.
func probe(st *probeState, stop <-chan struct{}) float64 {
	var ns []float64
	for {
		t0 := time.Now()
		st.unit()
		ns = append(ns, float64(time.Since(t0)))
		select {
		case <-stop:
			sort.Float64s(ns)
			return 1e9 / ns[len(ns)/2]
		case <-time.After(probePause):
		}
	}
}

// startProbe runs probe until the returned function is called, which
// returns the speed.
func startProbe(st *probeState) func() float64 {
	stop, speed := make(chan struct{}), make(chan float64, 1)
	go func() { speed <- probe(st, stop) }()
	return func() float64 {
		close(stop)
		return <-speed
	}
}

// scaled converts a time (or time per request) measured at the given
// probe speed to the reference speed.
func scaled(t, speed float64) float64 { return t * speed / referenceSpeed }
