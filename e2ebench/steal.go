package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealEvery is how often the steal log reads the CPU counters.
const stealEvery = 50 * time.Millisecond

// maxStealShare caps the share a window's figure is scaled by, so a
// window in which the machine got almost no CPU cannot blow up.
const maxStealShare = 0.8

// cpuTicks is one reading of the machine's aggregate CPU counters.
type cpuTicks struct {
	at           time.Time
	steal, total int64
}

// stealLog records, through a measured phase, how much CPU time the
// host took away from this virtual machine ("steal" in /proc/stat).
// On a shared host that share moves from 0 to over 30% within a
// minute and every wall-clock figure moves with it, so each window's
// figure is scaled to the CPU share the machine had in that window.
// Where the kernel reports no steal time the share is 0 and figures
// are left as measured.
type stealLog struct {
	quit chan struct{}
	done chan struct{}

	mu sync.Mutex
	s  []cpuTicks
}

// startStealLog starts reading the counters every stealEvery.
func startStealLog() *stealLog {
	l := &stealLog{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			if c, ok := readCPUTicks(); ok {
				l.mu.Lock()
				l.s = append(l.s, c)
				l.mu.Unlock()
			}
			select {
			case <-l.quit:
				return
			case <-t.C:
			}
		}
	}()
	return l
}

// stop ends the sampling, takes a last reading and waits for the
// sampler to exit.
func (l *stealLog) stop() {
	close(l.quit)
	<-l.done
	if c, ok := readCPUTicks(); ok {
		l.mu.Lock()
		l.s = append(l.s, c)
		l.mu.Unlock()
	}
}

// share returns the fraction of the machine's CPU time stolen between
// the last reading at or before a and the first at or after b, capped
// at maxStealShare; 0 when the log has no readings around the span.
func (l *stealLog) share(a, b time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var x, y *cpuTicks
	for i := range l.s {
		c := &l.s[i]
		if !c.at.After(a) || x == nil {
			x = c
		}
		if !c.at.Before(b) {
			y = c
			break
		}
	}
	if x == nil || y == nil || y.total <= x.total {
		return 0
	}
	return min(float64(y.steal-x.steal)/float64(y.total-x.total), maxStealShare)
}

// asTime scales a time measured over [a, b) to the CPU share the
// machine had then: a time stretched by stolen CPU shrinks back.
func (l *stealLog) asTime(v float64, a, b time.Time) float64 {
	return v * (1 - l.share(a, b))
}

// asRate scales a rate measured over [a, b) the same way.
func (l *stealLog) asRate(v float64, a, b time.Time) float64 {
	return v / (1 - l.share(a, b))
}

// readCPUTicks reads the aggregate "cpu" line of /proc/stat: steal is
// its eighth counter, total the sum of all of them.
func readCPUTicks() (cpuTicks, bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	c := cpuTicks{at: time.Now()}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, true
}
