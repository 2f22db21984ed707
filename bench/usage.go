package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every timed interval is read on three clocks: wall, process CPU and
// the host's steal. The metrics named *_s are the first two as measured.
// The sizing host, a small virtual machine, cannot hold those steady
// from one run to the next (README "Noise"): the hypervisor takes the
// vCPUs away in bursts, and other guests slow its memory system by a
// third for minutes at a time. The metrics named *_ref are therefore the
// same intervals net of steal and divided by the time a reference kernel
// took in the same run — times in multiples of that kernel, which a slow
// spell stretches along with the ops. They are the ones BENCHMARK.json
// puts bounds on.

// usage is a point in time on the three clocks.
type usage struct {
	at    time.Time
	cpu   time.Duration // process user+system time
	steal time.Duration // stolen time, all of the host's CPUs
}

func readUsage() usage {
	u := usage{at: time.Now(), steal: readSteal()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// readSteal returns the cumulative steal time of all CPUs: the eighth
// value of /proc/stat's first line, in USER_HZ (1/100 s) ticks; 0 where
// the kernel reports none (bare metal, no /proc/stat).
func readSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}

// interval is what elapsed between two usage readings, as measured.
type interval struct {
	wall, cpu, steal time.Duration
}

func (u usage) until(v usage) interval {
	return interval{wall: v.at.Sub(u.at), cpu: v.cpu - u.cpu, steal: v.steal - u.steal}
}

// net is the interval's wall-clock without the stall hypervisor steal
// caused. /proc/stat sums the steal of every CPU of the host; the
// process runs on GOMAXPROCS of them, so that share is taken as its own.
// Stolen time stalls one vCPU; an interval that kept p vCPUs busy is
// held up by about steal/p. p is the interval's own CPU time over its
// net wall, between 1 (an op waiting on a file still has one thread to
// stall) and the CPUs in use; the two are solved together by fixed-point
// iteration.
func (iv interval) net() time.Duration {
	if iv.steal <= 0 || iv.wall <= 0 {
		return iv.wall
	}
	cpus := float64(runtime.GOMAXPROCS(0))
	steal := float64(iv.steal) * cpus / max(float64(runtime.NumCPU()), cpus)
	net := float64(iv.wall) - steal/cpus
	for i := 0; i < 4; i++ {
		p := float64(iv.cpu) / net
		p = min(max(p, 1), cpus)
		net = float64(iv.wall) - steal/p
		if floor := float64(iv.cpu) / cpus; net < floor {
			net = floor // never below the CPU time actually consumed per vCPU
		}
	}
	if net <= 0 {
		return iv.wall
	}
	return time.Duration(net)
}

// The reference kernel is bound by what the slow spells slow — hash-map
// updates over a table larger than L2; a register-only loop keeps its
// speed through them.
const (
	refKeys    = 16384
	refUpdates = 100000
	refPasses  = 7
)

var refTable = make(map[int64]float64, refKeys)

func refPass() time.Duration {
	clear(refTable)
	start := time.Now()
	for i := 0; i < refUpdates; i++ {
		refTable[int64(uint32(i)*2654435761%refKeys)] += float64(i)
	}
	return time.Since(start)
}

// refKernel takes one reading of the reference kernel: the median of
// seven passes after a discarded one, which finds caches cold and the
// vCPU just woken. It collects garbage first: the collector, still
// marking what the op before it left, would otherwise run beside the
// kernel and slow it.
func refKernel() time.Duration {
	runtime.GC()
	refPass()
	var passes [refPasses]time.Duration
	for i := range passes {
		passes[i] = refPass()
	}
	slices.Sort(passes[:])
	return passes[refPasses/2]
}

// refQuiet is the reference kernel's time on the sizing host when
// nothing disturbs it. It is used for one metric only, setup_s: the
// driver fixes that metric's name and unit, and compares its median
// between two rounds of runs some twenty minutes apart, over which the
// sizing host's speed moves by up to 40 %. setup_s is therefore the
// set-up's time in reference-kernel units times refQuiet — seconds as
// the quiet sizing host would measure them. On another host it is off by
// the ratio of that host's quiet reading (in every run's notes) to this
// constant; setup_wall_s, printed beside it, is the time as measured.
const refQuiet = 1400 * time.Microsecond
