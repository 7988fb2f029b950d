package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The benchmark's reference host is a 2-vCPU VM that shares its cores and
// last-level cache with other tenants. Its speed wanders by a fifth to a
// third over tens of seconds and more over single seconds, so a raw wall
// time says as much about the neighbours as about the program. A run
// therefore samples the host's speed with a fixed kernel of the
// benchmark's own — never the program under test — between the items it
// times: before and after every set-up, round and restart, while nothing
// of the program runs. Each item's time is reported as it would read on
// the reference host: the measured time times the mean of the two samples
// around it. The kernel is the same on every commit, so a change to the
// program moves these numbers as it moves the raw ones, which every run
// prints beside them.

// sampleTime is how long one speed sample runs the kernel.
const sampleTime = 60 * time.Millisecond

// refUnitsPerSec is the kernel's rate, summed over both processors, on
// the reference host in a typical phase; a sample reports its rate as a
// share of it.
const refUnitsPerSec = 4500

// hostProbe runs the speed kernel: per unit and processor, a
// floating-point loop over an array in the core's own cache, a pointer
// chase through one that spills into the shared cache, and a sort, JSON
// encoding and map fill of small records — the three kinds of work the
// twin and its service do.
type hostProbe struct {
	chase [procs][]int32
}

type probeRec struct {
	A int
	B float64
	C string
}

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for g := range p.chase {
		const n = 1 << 20 // 4 MB: past the core's 2 MB L2
		perm := rand.New(rand.NewSource(int64(g + 1))).Perm(n)
		c := make([]int32, n)
		for i := range perm {
			c[perm[i]] = int32(perm[(i+1)%n])
		}
		p.chase[g] = c
	}
	return p
}

// kernel runs whole units on processor g for at least d (and at least
// one unit) and returns how many it ran and how long they took.
func (p *hostProbe) kernel(g int, d time.Duration) (units int, took time.Duration) {
	a := make([]float64, 1<<14)
	recs := make([]probeRec, 512)
	rng := rand.New(rand.NewSource(int64(g)))
	c := p.chase[g]
	var at int32
	start := time.Now()
	for units == 0 || time.Since(start) < d {
		for k := 0; k < 6; k++ {
			for i := range a {
				a[i] = a[i]*0.5 + float64(i)
			}
		}
		for k := 0; k < 1000; k++ {
			at = c[at]
		}
		for i := range recs {
			recs[i] = probeRec{rng.Intn(1000), rng.Float64(), "x"}
		}
		sort.Slice(recs, func(i, k int) bool { return recs[i].A < recs[k].A })
		b, _ := json.Marshal(recs[:64])
		m := make(map[int]int, len(recs))
		for i := range recs {
			m[recs[i].A] += len(b)
		}
		units++
	}
	took = time.Since(start)
	if at < 0 || a[0] < 0 {
		panic("unreachable")
	}
	return units, took
}

// sample runs the kernel on every processor at once for about d and
// returns the host's speed as a share of the reference host's.
func (p *hostProbe) sample(d time.Duration) float64 {
	var wg sync.WaitGroup
	var rate [procs]float64
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n, took := p.kernel(g, d)
			rate[g] = float64(n) / took.Seconds()
		}(g)
	}
	wg.Wait()
	var sum float64
	for _, v := range rate {
		sum += v
	}
	return sum / refUnitsPerSec
}

// speedLog is a run's speed samples, each stamped with the moment
// halfway through it. The run takes one before and after every timed
// item, so an item lies between two samples, and the host's speed during
// it is read off the straight line between them. Without a probe (the
// smoke test) every item reads as timed on the reference host.
type speedLog struct {
	probe *hostProbe
	d     time.Duration
	at    []time.Time
	speed []float64
	spent time.Duration // time the samples took
}

// mark takes a sample.
func (s *speedLog) mark() {
	if s.probe == nil {
		return
	}
	start := time.Now()
	v := s.probe.sample(s.d)
	s.spent += time.Since(start)
	s.at = append(s.at, start.Add(time.Since(start)/2))
	s.speed = append(s.speed, v)
}

// speedAt interpolates the host's speed at t between the samples around
// it; before the first sample or after the last it is that sample's.
func (s *speedLog) speedAt(t time.Time) float64 {
	n := len(s.at)
	if n == 0 {
		return 1
	}
	k := sort.Search(n, func(i int) bool { return s.at[i].After(t) })
	switch k {
	case 0:
		return s.speed[0]
	case n:
		return s.speed[n-1]
	}
	f := float64(t.Sub(s.at[k-1])) / float64(s.at[k].Sub(s.at[k-1]))
	return s.speed[k-1] + f*(s.speed[k]-s.speed[k-1])
}

// interval is a timed item: when it started and how long it took.
type interval struct {
	start time.Time
	d     time.Duration
}

// ref is how many seconds the interval would have taken on the
// reference host: its duration times the host's speed halfway through.
func (s *speedLog) ref(iv interval) float64 {
	return iv.d.Seconds() * s.speedAt(iv.start.Add(iv.d/2))
}
