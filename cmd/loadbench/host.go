package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The dev VM shares its two vCPUs with other guests. Their load takes
// a vCPU away for seconds to minutes at a time: the wall time of one
// fixed two-thread operation moves by up to 2× between runs of the same
// binary. So every timed piece of work is bracketed by a host probe, a
// fixed spin with no library code in it, taken once on one goroutine
// (narrow) and once on nproc goroutines (wide), and a duration is
// reported at the host's quiet speed:
//
//	normalised = raw × quiet / mean(reference before, reference after)
//
// The reference of a rigid thread team (an engine run) is the wide
// probe: both wait for their slowest thread, so both lose what the
// slowest vCPU loses. All other work is elastic (single-threaded loops,
// goroutine-scheduled serving): it loses less than the wide probe when
// one vCPU is taken away, and more than a 4 ms one-thread spin can see
// when the host slices both, so its reference is the mean of the two
// probes. quiet is the 2nd percentile of the narrow probe over the run:
// a 4 ms spin on one thread finds quiet moments that a 100 ms operation
// on two cannot, and on a quiet host the goroutines of the wide probe
// run in parallel and take the same time. README.md has the
// measurements behind this.

// spinIters makes one probe spin take about 4 ms on the dev VM.
const spinIters = 2_000_000

var spinSink uint64

func spinOnce() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// spin runs the reference spin on width goroutines and returns its
// wall time in nanoseconds.
func spin(width int) float64 {
	start := time.Now()
	if width <= 1 {
		spinSink += spinOnce()
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for g := 0; g < width; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := spinOnce()
				mu.Lock()
				spinSink += x
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	return float64(time.Since(start))
}

// piece is one timed stretch of work between two probes.
type piece struct {
	team          bool // the work is a rigid team of nproc threads
	before, after int32
	ns            int64
}

// host takes the probes and holds every timed piece of a run.
type host struct {
	nproc  int
	probes [][2]float64 // [narrow, wide] spin times, ns
	pieces []piece
}

func newHost(nproc, capacity int) *host {
	return &host{
		nproc:  nproc,
		probes: make([][2]float64, 0, capacity+8),
		pieces: make([]piece, 0, capacity),
	}
}

func (h *host) probe() {
	h.probes = append(h.probes, [2]float64{spin(1), spin(h.nproc)})
}

// timed runs fn between the last probe and a new one and returns the
// index of the piece. Call probe first when anything untimed ran since
// the last piece.
func (h *host) timed(team bool, fn func()) int {
	if len(h.probes) == 0 {
		h.probe()
	}
	before := int32(len(h.probes) - 1)
	start := time.Now()
	fn()
	ns := int64(time.Since(start))
	h.probe()
	h.pieces = append(h.pieces, piece{team: team, before: before, after: before + 1, ns: ns})
	return len(h.pieces) - 1
}

// Indices into a probe.
const (
	narrow = 0
	wide   = 1
)

// refs returns the probe times of one width, in run order.
func (h *host) refs(width int) []float64 {
	out := make([]float64, len(h.probes))
	for i, p := range h.probes {
		out[i] = p[width]
	}
	return out
}

// quiet is the spin time of the undisturbed host.
func (h *host) quiet() float64 { return percentile(h.refs(narrow), 2) }

// factor scales a raw duration measured inside piece p to the quiet
// host.
func (h *host) factor(p int, quiet float64) float64 {
	pc := h.pieces[p]
	reference := func(probe [2]float64) float64 {
		if pc.team {
			return probe[wide]
		}
		return (probe[narrow] + probe[wide]) / 2
	}
	return quiet / ((reference(h.probes[pc.before]) + reference(h.probes[pc.after])) / 2)
}

// procField reads one "Key: value" line of a /proc/self file; 0 when
// the file or the key is missing.
func procField(file, key string) int64 {
	data, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte(key+":")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseInt(string(f[0]), 10, 64)
			return v
		}
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// writtenBytes counts the bytes the process passed to write calls.
func writtenBytes() int64 { return procField("io", "wchar") }

// cpuTime is the user plus system time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
