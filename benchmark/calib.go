package main

import (
	"math"
	"sync"
	"time"

	"questgo/internal/stats"
)

// The box this benchmark runs on is a few cores of a shared host. For a
// minute or two at a time a neighbour on the same physical cores takes part
// of their caches and execution ports, and everything throughput-bound runs
// 1.3 to 1.5 times slower; a latency-bound loop does not notice. No run
// length the driver allows averages that out, so a 20-minute log of raw
// timings spreads 19-24% between quartiles, at the cap of any legal bound.
//
// The speedometer measures the state of the box instead: a small matrix
// product in this package's own code (none of the program's, so that no
// optimisation of the program moves it), timed on every core at once before
// and after each round. The end-to-end timings are divided by the slowdown
// it reads, which leaves them as they would be on the quiet box: the same
// log spreads 5-7% afterwards. Per-layer timings stay as measured.
const (
	calibN    = 96 // three 72 KB matrices: out of L1, inside L2
	calibReps = 25
	// calibQuietMS is one repetition on this box's cores (Xeon @ 2.1 GHz)
	// between rounds while the host is quiet. On another machine every
	// normalised timing is off by one constant factor, the same for parent
	// and change.
	calibQuietMS = 0.85
	// calibShare is the share of the kernel's slowdown the workloads show:
	// fitted once on that log (0.5-0.7 fit all five workloads equally well),
	// because the sweep is part latency-bound and the kernel is not.
	calibShare = 0.6
)

type speedometer struct {
	a, b, c [procs][]float64
	reps    int
	read    []float64 // every slowdown read so far
}

func newSpeedometer(reps int) *speedometer {
	m := &speedometer{reps: reps}
	for g := 0; g < procs; g++ {
		m.a[g], m.b[g], m.c[g] = make([]float64, calibN*calibN), make([]float64, calibN*calibN), make([]float64, calibN*calibN)
		for i := range m.a[g] {
			m.a[g][i], m.b[g][i] = float64(i%7)*0.1, float64(i%5)*0.1
		}
	}
	return m
}

// calibKernel is c = a*b, written plainly: scalar loads, multiplies and
// stores that keep the core's ports busy.
func calibKernel(a, b, c []float64) {
	clear(c)
	for i := 0; i < calibN; i++ {
		for k := 0; k < calibN; k++ {
			aik := a[i*calibN+k]
			for j := 0; j < calibN; j++ {
				c[i*calibN+j] += aik * b[k*calibN+j]
			}
		}
	}
}

// slowdown reads how much slower than quiet the box runs right now, as the
// workloads feel it: 1 on the quiet box. Each core reports the median of its
// repetitions, so a stray interrupt does not count.
func (m *speedometer) slowdown() float64 {
	var wg sync.WaitGroup
	var med [procs]float64
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := make([]float64, m.reps)
			for r := range ms {
				start := time.Now()
				calibKernel(m.a[g], m.b[g], m.c[g])
				ms[r] = msBetween(start, time.Now())
			}
			med[g] = median(ms)
		}()
	}
	wg.Wait()
	s := math.Pow(stats.Mean(med[:])/calibQuietMS, calibShare)
	m.read = append(m.read, s)
	return s
}
