package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fedopt"
	"repro/internal/fixedpoint"
	"repro/internal/obs"
	"repro/internal/vecpool"
)

// gate is one correctness check of a run; a failed gate makes the run
// incorrect and the process exit non-zero.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func check(name string, ok bool, format string, args ...any) gate {
	return gate{name, ok, fmt.Sprintf(format, args...)}
}

func obsSnapshot() map[string]float64 { return obs.Default().Snapshot() }

// obsDelta is how much one agg-0 series of the obs plane moved since before.
func obsDelta(before, after map[string]float64, family string) float64 {
	key := family + `{node="agg-0"}`
	return after[key] - before[key]
}

// histMeanMs is the mean of an agg-0 histogram's observations since
// before, in ms.
func histMeanMs(before, after map[string]float64, family string) float64 {
	n := obsDelta(before, after, family+"_count")
	if n == 0 {
		return 0
	}
	return obsDelta(before, after, family+"_sum") / n * 1000
}

// verify runs every gate of a networked workload after the drivers have
// quiesced. l is the whole load since setup (warm-up included): every
// participation the task ever saw went through it.
func (p *plane) verify(l load, rate float64) []gate {
	w := p.w
	var gates []gate
	info, err := p.taskInfo()
	if err != nil {
		return []gate{check("task-info", false, "%v", err)}
	}
	completed := int64(len(l.samples))
	gates = append(gates, check("exactly-once", info.Updates == completed,
		"server counted %d updates, clients completed %d", info.Updates, completed))
	gates = append(gates, check("no-failures", l.failed == 0,
		"%d of %d admitted participations failed %v", l.failed, l.admitted(), l.reasons))

	if w.Mode == core.Async {
		// Every release drains the whole buffer. Under SecAgg the add and
		// the release are task-atomic, so a release holds exactly Goal
		// updates; on the sharded path a concurrent finisher's update can
		// land in the release it raced (aggregator.go, "one deliberate
		// relaxation"), so a release holds Goal..Goal+drivers-1.
		lo, hi := info.Updates/int64(w.Goal), info.Updates/int64(w.Goal)
		if !w.SecAgg {
			lo = (info.Updates - int64(w.Goal-1)) / int64(w.Goal+numDrivers-1)
		}
		gates = append(gates, check("version", lo <= int64(info.Version) && int64(info.Version) <= hi,
			"version %d for %d updates at goal %d (want %d..%d)", info.Version, info.Updates, w.Goal, lo, hi))
		// Admission-cap guard: with Coordinator.pending reset only on a
		// heartbeat, admission is capped at Concurrency / Heartbeat. An
		// async cell must sit far below it, or it measures a timer.
		ceiling := float64(w.Concurrency) / heartbeat.Seconds()
		gates = append(gates, check("admission-uncapped", l.rejected == 0 && ceiling >= 20*rate,
			"%d rejected check-ins; cap %.0f/s vs %.1f uploads/s", l.rejected, ceiling, rate))
	}

	switch {
	case w.Train:
		before := p.in.model.Loss(p.in.init, p.in.eval)
		after := p.in.model.Loss(info.Params, p.in.eval)
		gates = append(gates, check("loss-decreased", after < before, "eval loss %.4f -> %.4f", before, after))
	default:
		// Every client uploads the same delta, so each release is that
		// delta (a weighted mean of identical vectors) and the model is
		// FedAdam stepped Version times on it. It is not bit-equal: the
		// float32 mean of weighted copies is off by an ulp or so, and from
		// then on every step may round the growing parameter differently,
		// so the tolerance grows with the steps taken (2 ulp per step of
		// the distance travelled). A systematic wire fault (wrong offset,
		// dropped chunk) moves parameters by a large share of that distance.
		want, delta := make([]float32, w.NumParams), p.in.delta
		tol := 1e-4
		if w.SecAgg {
			// Masked uploads carry the fixed-point image of the delta.
			fp := fixedpoint.NewCodec(1 << 16)
			delta = make([]float32, len(p.in.delta))
			for i, v := range p.in.delta {
				delta[i] = float32(fp.Decode(fp.Encode(float64(v))))
			}
			tol = 1e-2
		}
		opt := fedopt.DefaultFedAdam()
		for v := 0; v < info.Version; v++ {
			opt.Step(want, delta)
		}
		tol += float64(info.Version) * 2 / (1 << 23)
		travel := 1 + float64(info.Version)*opt.LR
		var worst float64
		for i := range want {
			worst = math.Max(worst, math.Abs(float64(want[i]-info.Params[i])))
		}
		gates = append(gates, check("params", len(info.Params) == len(want) && worst <= tol*travel,
			"max |got-want| %.3g after %d steps (tolerance %.3g)", worst, info.Version, tol*travel))
	}
	if w.DP {
		gates = append(gates, check("dp-releases", info.DPEnabled && info.DPReleases == info.Version,
			"%d noised releases for %d versions", info.DPReleases, info.Version))
	}

	// The obs plane must balance once the fleet is quiet; pooled vectors
	// of the last responses return right after their frames are written.
	var opened, closed, reaped float64
	var leased int64
	for wait := 0; wait < 100; wait++ {
		now := obsSnapshot()
		opened = obsDelta(p.obs0, now, "papaya_sessions_opened_total")
		closed = obsDelta(p.obs0, now, "papaya_sessions_closed_total")
		reaped = obsDelta(p.obs0, now, "papaya_sessions_reaped_total")
		leased = outstandingLeases() - p.leases0
		if opened == closed+reaped && (leased == 0 || !p.leaseDebug) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	gates = append(gates, check("sessions-balance", opened == closed+reaped,
		"opened %.0f, closed %.0f, reaped %.0f", opened, closed, reaped))
	// vecpool's counters track capacity class, not provenance: without its
	// debug lease table a foreign power-of-two slice is adopted on Put and
	// the count drifts (README, "Findings"). Only planes that run with the
	// table on can demand exact balance.
	if p.leaseDebug {
		gates = append(gates, check("vecpool-balance", leased == 0,
			"%d pooled vectors outstanding, %d foreign puts quarantined", leased, vecpool.ForeignPuts()))
	}
	return gates
}

func outstandingLeases() int64 { return vecpool.OutstandingFloats() + vecpool.OutstandingUints() }
