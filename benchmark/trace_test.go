package main

import (
	"math"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{Start: 100, Dur: 100} // [100, 200]
	children := []span{
		{Start: 110, Dur: 30}, // [110, 140]
		{Start: 130, Dur: 30}, // [130, 160] overlaps the first: union [110, 160]
		{Start: 150, Dur: 5},  // inside the union
		{Start: 190, Dur: 50}, // [190, 240] sticks out: only [190, 200] counts
		{Start: 20, Dur: 30},  // before the parent: nothing
	}
	if got := selfTime(parent, children); got != 100-50-10 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}

// One synthetic session: every nanosecond of it must land in exactly one
// row, with the deepest active span owning each instant of a blocking call.
func TestAnalyzeAttributesTheWholeSession(t *testing.T) {
	const tr = 7
	spans := []span{
		{Layer: layerSession, Name: "session", Trace: tr, Start: 0, Dur: 1000},
		{Layer: layerOpen, Name: "open-session", Trace: tr, Start: 10, Dur: 40},
		{Layer: layerCall, Name: "checkin", Trace: tr, Start: 50, Dur: 200},
		{Layer: layerSelector, Name: "checkin", Trace: tr, Start: 70, Dur: 150},
		{Layer: layerSelCall, Name: "assign-client", Trace: tr, Start: 80, Dur: 40},
		{Layer: layerCoord, Name: "assign-client", Trace: tr, Start: 90, Dur: 10},
		{Layer: layerSelCall, Name: "join", Trace: tr, Start: 130, Dur: 60},
		{Layer: layerAgg, Name: "join", Trace: tr, Start: 150, Dur: 20},
		{Layer: layerTrain, Name: "train", Trace: tr, Start: 300, Dur: 100},
		{Layer: layerSend, Name: "upload-chunk", Trace: tr, Start: 500, Dur: 10},
		// The elided chunk is served while the client is already blocked on
		// the final call: only the part inside that call is on the
		// blocking path.
		{Layer: layerCall, Name: "upload-final", Trace: tr, Start: 520, Dur: 300},
		{Layer: layerSelector, Name: "upload-chunk", Trace: tr, Start: 505, Dur: 100}, // [505, 605]
		{Layer: layerSelCall, Name: "upload-chunk", Trace: tr, Start: 510, Dur: 90},   // [510, 600]
		{Layer: layerAgg, Name: "upload-chunk", Trace: tr, Start: 515, Dur: 45},       // [515, 560]
		{Layer: layerSelector, Name: "upload-final", Trace: tr, Start: 610, Dur: 190}, // [610, 800]
		{Layer: layerSelCall, Name: "upload-final", Trace: tr, Start: 620, Dur: 170},  // [620, 790]
		{Layer: layerAgg, Name: "upload-final", Trace: tr, Start: 650, Dur: 100},      // [650, 750]
		// A second, incomplete trace and an untraced heartbeat are ignored.
		{Layer: layerCall, Name: "checkin", Trace: 8, Start: 0, Dur: 10},
		{Layer: layerCoord, Name: "agg-report", Start: 400, Dur: 4000},
	}
	a := analyze(spans, 0, 1000)
	if a.Sessions != 1 {
		t.Fatalf("%d sessions, want 1", a.Sessions)
	}
	ns := func(row string) float64 { return a.Blocking[row] * 1e6 }
	want := map[string]float64{
		rowClientSelf: 1000 - 40 - 200 - 100 - 10 - 300,
		rowTrain:      100,
		rowSend:       10,
		rowAssign:     10,
		rowJoin:       20,
		rowSelCheckin: 150 - 40 - 60,
		// checkin: selector calls minus callee handlers; final call: chunk
		// call [520,600] minus handler [520,560], final call [620,790]
		// minus handler [650,750].
		rowInnerHop:   (40 - 10) + (60 - 20) + (80 - 40) + (170 - 100),
		rowChunkBlock: 40,
		rowFinish:     100,
		// final call [520,820]: selector spans cover [520,605] and
		// [610,800], their calls [520,600] and [620,790].
		rowSelRoute: (85 - 80) + (190 - 170),
		// open + checkin outside the selector [50,70]+[220,250] + final
		// call outside the selector [605,610]+[800,820].
		rowHop: 40 + 20 + 30 + 5 + 20,
	}
	var sum float64
	for _, row := range reportRows {
		if math.Abs(ns(row)-want[row]) > 1e-6 {
			t.Errorf("%s = %.0f ns, want %.0f", row, ns(row), want[row])
		}
		sum += ns(row)
	}
	if math.Abs(sum-1000) > 1e-6 || math.Abs(a.Unattributed) > 1e-9 {
		t.Errorf("rows sum to %.0f of 1000 ns, unattributed %.3g", sum, a.Unattributed)
	}
	if got := a.Stages["upload"] * 1e6; math.Abs(got-320) > 1e-6 {
		t.Errorf("upload stage = %.0f ns, want 320 (first chunk to final ack)", got)
	}
	if got := a.Stages["checkin"] * 1e6; math.Abs(got-240) > 1e-6 {
		t.Errorf("checkin stage = %.0f ns, want 240 (open + call)", got)
	}
	if math.Abs(a.AggReportMs-0.004) > 1e-12 || math.Abs(a.ChunkMs*1e6-45) > 1e-6 {
		t.Errorf("agg-report %.4g ms, chunk %.4g ms", a.AggReportMs, a.ChunkMs)
	}
}
