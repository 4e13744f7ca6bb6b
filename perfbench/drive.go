package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// senders is the generator's concurrency: at most this many requests
// are in flight, over at most this many connections, in every phase.
const senders = 2

// phase names a stretch of the run; a workload may hand out different
// inputs per phase.
type phase int

const (
	phaseWarm phase = iota
	phaseClosed
	phaseOpen
)

// op is one request the generator issues. check verifies a 200
// response body and fills the response-derived fields of the sample.
type op struct {
	path  string
	body  []byte
	input int // index in the workload's fixed input set; -1 for a one-off input
	check func(body []byte, s *sample) error
}

// sample is the generator's record of one issued request. Times are
// nanoseconds from the phase start; in the closed loop due == sent.
type sample struct {
	rid                   string
	input                 int // op.input
	due, sent, done, slip int64
	status                int
	err                   error
	reqBytes              int
	// Filled by op.check from the verified response.
	queueNS, cacheNS, solveNS int64
	cache                     string
	ratio                     float64 // makespan / lower bound
	moves                     int
	rebalanced                bool
}

// latency is the request's time from when it was due to its response.
func (s *sample) latency() int64 { return s.done - s.due }

// gen is the load generator: one HTTP client with at most senders
// connections, aimed at the stack's entry point.
type gen struct {
	hc   *http.Client
	base string
}

func newGen() *gen {
	return &gen{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}}}
}

// issue sends o, times it against start, and verifies the response.
func (g *gen) issue(ctx context.Context, start time.Time, o op, s *sample) {
	s.reqBytes, s.input = len(o.body), o.input
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", s.rid)
	s.sent = int64(time.Since(start))
	resp, err := g.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = int64(time.Since(start))
	switch {
	case err != nil:
		s.err = err
	case s.status != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(body))
	default:
		if cerr := o.check(body, s); cerr != nil {
			s.err = fmt.Errorf("verification: %w", cerr)
		}
	}
}

// usage is a process resource reading taken at a phase boundary.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	pauseNS uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		pauseNS: ms.PauseTotalNs,
	}
}

// phaseRun is the outcome of one phase, or of its blocks merged: every
// sample, on one time axis, plus the process resource use across it.
type phaseRun struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration // user + system
	mallocs uint64
	pauseNS uint64
}

// finish records the resource use since u0 into a block.
func (p *phaseRun) finish(u0 usage) {
	u1 := readUsage()
	p.elapsed = u1.wall.Sub(u0.wall)
	p.cpu = u1.cpu - u0.cpu
	p.mallocs = u1.mallocs - u0.mallocs
	p.pauseNS = u1.pauseNS - u0.pauseNS
}

// merge appends block b.
func (p *phaseRun) merge(b phaseRun) {
	p.samples = append(p.samples, b.samples...)
	p.elapsed += b.elapsed
	p.cpu += b.cpu
	p.mallocs += b.mallocs
	p.pauseNS += b.pauseNS
}

func (p *phaseRun) seconds() float64 { return p.elapsed.Seconds() }

func (p *phaseRun) okCount() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].err == nil {
			n++
		}
	}
	return n
}

// closedLoop runs senders clients, each issuing its next op as soon as
// the previous one completes, until dur has passed or the workload runs
// out of inputs. Sample times count from base before the block began.
func closedLoop(ctx context.Context, g *gen, l load, ph phase, dur, base time.Duration) phaseRun {
	per := make([][]sample, senders)
	u0 := readUsage()
	start := u0.wall.Add(-base)
	end := u0.wall.Add(dur)
	var run phaseRun
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(end); i++ {
				o, ok := l.next(ph, c)
				if !ok {
					return
				}
				s := sample{rid: fmt.Sprintf("u-%d-%d-%d", ph, c, i)}
				g.issue(ctx, start, o, &s)
				s.due = s.sent
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	run.finish(u0)
	for _, ss := range per {
		run.samples = append(run.samples, ss...)
	}
	return run
}

// pacer waits for deadlines on a Linux timerfd read through the
// runtime's network poller. The wait holds no scheduler slot, unlike a
// nanosleep(2) in a goroutine, which keeps its P while sysmon may sleep
// for up to 10 ms before handing it off; and it wakes within the
// kernel's timer slack, unlike the runtime timer, whose wake-ups on an
// idle process round up to a millisecond.
type pacer struct {
	fd uintptr  // the raw descriptor; File.Fd would make reads blocking
	f  *os.File // the same descriptor, registered with the poller
}

// Linux timerfd constants (timerfd_create(2)).
const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil blocks until t.
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := io.ReadFull(p.f, expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

// openLoop issues ops lo..hi-1 of the schedule, op i at due[i] on a
// clock that read base when the block began, on sender i%senders,
// whether or not earlier requests have completed; each request is
// timed from when it was due. Each sender waits for its own requests'
// due times on its own pacer, so no goroutine hand-off (one more
// wake-up on a shared host) sits between a due time and its send. With
// traced set, requests with i%4 in {1,2} carry a traced request ID
// (half of each sender's requests).
func openLoop(ctx context.Context, g *gen, l load, due []int64, lo, hi int, base time.Duration, traced bool) (phaseRun, error) {
	pcs := make([]*pacer, senders)
	for c := range pcs {
		pc, err := newPacer()
		if err != nil {
			for _, p := range pcs[:c] {
				p.close()
			}
			return phaseRun{}, err
		}
		pcs[c] = pc
	}
	per := make([][]sample, senders)
	errs := make([]error, senders)
	u0 := readUsage()
	start := u0.wall.Add(-base)
	var run phaseRun
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer pcs[c].close()
			var free int64 // when this sender finished its previous request
			for i := lo + (c-lo%senders+senders)%senders; i < hi; i += senders {
				if errs[c] = pcs[c].waitUntil(start.Add(time.Duration(due[i]))); errs[c] != nil {
					return
				}
				prefix := "u-"
				if traced && (i%4 == 1 || i%4 == 2) {
					prefix = tracedPrefix
				}
				s := sample{rid: fmt.Sprintf("%s%d-%d", prefix, phaseOpen, i), due: due[i]}
				o := l.openOp(i)
				g.issue(ctx, start, o, &s)
				// The generator's own slip: how long after the request was
				// both due and had a free sender it actually went out.
				s.slip = s.sent - max(s.due, free)
				free = s.done
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	run.finish(u0)
	for _, ss := range per {
		run.samples = append(run.samples, ss...)
	}
	return run, errors.Join(errs...)
}
