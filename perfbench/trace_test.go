package main

import "testing"

// Nested spans: each self time is the span minus its children, and the
// self times add up to the root.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, Name: "frame", Start: 0, End: 100},
		{Trace: 1, Name: "ingest", Parent: "frame", Start: 10, End: 90},
		{Trace: 1, Name: "dispatch", Parent: "ingest", Start: 30, End: 70},
		{Trace: 2, Name: "frame", Start: 0, End: 50},
		{Trace: 2, Name: "ingest", Parent: "frame", Start: 0, End: 50},
		{Trace: 2, Name: "dispatch", Parent: "ingest", Start: 20, End: 30},
	}
	self, traces, err := selfTimes(spans, "frame")
	if err != nil {
		t.Fatal(err)
	}
	if traces != 2 {
		t.Fatalf("%d traces", traces)
	}
	want := map[string]int64{"frame": 20 + 0, "ingest": 40 + 40, "dispatch": 40 + 10}
	for name, w := range want {
		if int64(self[name]) != w {
			t.Errorf("%s self %d, want %d", name, self[name], w)
		}
	}
}

// A child sticking out of its parent is clipped, so the self times no
// longer add up to the root and the check reports it.
func TestSelfTimesRejectsBadNesting(t *testing.T) {
	spans := []span{
		{Trace: 7, Name: "frame", Start: 0, End: 100},
		{Trace: 7, Name: "ingest", Parent: "frame", Start: 50, End: 150},
	}
	if _, _, err := selfTimes(spans, "frame"); err == nil {
		t.Fatal("a child outside its parent passed the self-time check")
	}
}

func stamps(n int) []frameStamps {
	fs := make([]frameStamps, n)
	for i := range fs {
		fs[i] = frameStamps{id: int64(i), due: 0, sent: 10, sub: 20, res: 70, route: 80, read: 100}
	}
	return fs
}

// Served frames become nested frame ⊃ ingest ⊃ dispatch spans whose self
// times add up to the frame span.
func TestFrameTraces(t *testing.T) {
	kept, unattributed, err := frameTraces(stamps(10), 100)
	if err != nil || unattributed != 0 || len(kept) != 30 {
		t.Fatalf("kept %d spans, %d unattributed, err %v", len(kept), unattributed, err)
	}
	if _, traces, err := selfTimes(kept, "frame"); err != nil || traces != 10 {
		t.Fatalf("self times over %d traces: %v", traces, err)
	}
}

// An attributed frame whose timestamps do not nest fails the run.
func TestFrameTracesRejectsBadNesting(t *testing.T) {
	fs := stamps(10)
	fs[3].route = 110 // routed after the client read the result
	if _, _, err := frameTraces(fs, 100); err == nil {
		t.Fatal("a frame whose spans do not nest passed")
	}
	fs = stamps(10)
	fs[5].sub = 5 // submitted before it was sent
	if _, _, err := frameTraces(fs, 100); err == nil {
		t.Fatal("a frame submitted before it was sent passed")
	}
}

// Unattributed frames are tolerated up to maxUnattributed of the served
// ones, and fail the run beyond it.
func TestFrameTracesRejectsUnattributed(t *testing.T) {
	fs := stamps(2000)
	fs[0].sub, fs[0].res, fs[0].route = 0, 0, 0
	if _, n, err := frameTraces(fs, 100); err != nil || n != 1 {
		t.Fatalf("1 of 2000 unattributed: n=%d err=%v", n, err)
	}
	for i := 1; i < 10; i++ {
		fs[i].sub, fs[i].res, fs[i].route = 0, 0, 0
	}
	if _, _, err := frameTraces(fs, 100); err == nil {
		t.Fatal("10 of 2000 frames unattributed passed")
	}
}
