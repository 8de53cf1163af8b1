package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, or when a test stalls it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacersInterleaveConnections(t *testing.T) {
	start := time.Unix(0, 0)
	ps := pacersFor(loadStep{Rate: 1000, Dur: time.Second}, 2)
	if len(ps) != 2 {
		t.Fatalf("%d pacers", len(ps))
	}
	for c := range ps {
		ps[c].start = start
	}
	for c, p := range ps {
		if p.n != 500 || p.interval != 2*time.Millisecond {
			t.Fatalf("connection %d: %d frames every %v, want 500 every 2ms", c, p.n, p.interval)
		}
	}
	// Merged, the two schedules are due every millisecond.
	for i := 0; i < 10; i++ {
		want := start.Add(time.Duration(i) * time.Millisecond)
		if got := ps[i%2].due(i / 2); !got.Equal(want) {
			t.Fatalf("arrival %d due at %v, want %v", i, got.Sub(start), want.Sub(start))
		}
	}
}

// A stall delays every frame due during it; each is late by the time from
// its own due time to its send, and its latency counts from the due time.
func TestPacerLatenessAfterStall(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{t: start}
	p := pacer{start: start, interval: 100 * time.Microsecond, n: 8}

	var late []time.Duration
	for i := 0; i < p.n; i++ {
		if i == 2 {
			clk.t = clk.t.Add(350 * time.Microsecond) // the generator stalls
		}
		sendAt, l := p.wait(i, clk)
		if want := p.due(i).Add(l); !sendAt.Equal(want) {
			t.Fatalf("frame %d: sent at %v, want due+lateness %v", i, sendAt.Sub(start), want.Sub(start))
		}
		late = append(late, l)
	}
	// Frame 1 was sent at 100µs; the stall ends at 450µs, so frame 2 (due
	// 200µs) is 250µs late, frame 3 150µs, frame 4 50µs, and frame 5 (due
	// 500µs) is on time again.
	want := []time.Duration{0, 0, 250, 150, 50, 0, 0, 0}
	for i := range want {
		if late[i] != want[i]*time.Microsecond {
			t.Fatalf("lateness %v, want %v µs", late, want)
		}
	}
	// A RESULT read 30µs after frame 3 was sent took 180µs from its due time.
	sent := p.due(3).Add(late[3])
	if got := sent.Add(30 * time.Microsecond).Sub(p.due(3)); got != 180*time.Microsecond {
		t.Fatalf("latency from due %v, want 180µs", got)
	}
}
