package main

import "time"

// loadStep is one fixed offered rate of an open-loop schedule.
type loadStep struct {
	Name string
	Rate float64 // frames per second, over all connections
	Dur  time.Duration
}

// pacer is one connection's open-loop schedule for one load step: frame i
// is due at start + offset + i*interval whether or not earlier frames have
// been answered. A frame sent after its due time carries the delay as
// generator lateness, and its latency is still measured from the due time,
// so a stall counts against every frame it holds up.
type pacer struct {
	start    time.Time
	offset   time.Duration
	interval time.Duration
	n        int
}

// pacersFor splits a step's offered rate evenly over conns connections,
// interleaving their schedules so the aggregate arrivals are evenly spaced.
// The caller sets each pacer's start when the step begins.
func pacersFor(st loadStep, conns int) []pacer {
	interval := time.Duration(float64(time.Second) * float64(conns) / st.Rate)
	ps := make([]pacer, conns)
	for c := range ps {
		ps[c] = pacer{
			offset:   time.Duration(c) * interval / time.Duration(conns),
			interval: interval,
			n:        int(st.Dur / interval),
		}
	}
	return ps
}

// due returns when frame i is due.
func (p pacer) due(i int) time.Time {
	return p.start.Add(p.offset + time.Duration(i)*p.interval)
}

// clock is the time source a pacer waits on; tests substitute a fake.
type clock interface {
	now() time.Time
	sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) now() time.Time        { return time.Now() }
func (wallClock) sleep(d time.Duration) { time.Sleep(d) }

// wait blocks until frame i is due and returns the send time and how late
// it is relative to the due time (0 when on time). A generator that has
// fallen behind does not wait: it sends at once to catch up.
func (p pacer) wait(i int, clk clock) (sendAt time.Time, late time.Duration) {
	due := p.due(i)
	if w := due.Sub(clk.now()); w > 0 {
		clk.sleep(w)
	}
	sendAt = clk.now()
	if late = sendAt.Sub(due); late < 0 {
		late = 0
	}
	return sendAt, late
}
