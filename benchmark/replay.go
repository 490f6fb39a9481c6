package main

import (
	crand "crypto/rand"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/compress"
	"repro/internal/dp"
	"repro/internal/fedopt"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/secagg"
	"repro/internal/server"
	"repro/internal/tee"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vecpool"
)

// Replay: the benchmark times each layer's public function alone, at the
// sizes the workload puts through it. Only layers on the workload's path
// are replayed; the rest report 0.

// sink keeps the compiler from discarding a replayed call's result.
var sink any

// timeOp returns the median ns per call of op over several batches that
// together take about budget. prep, when non-nil, runs before every call
// and is not timed.
func timeOp(budget time.Duration, prep, op func()) float64 {
	run := func(n int) time.Duration {
		var total time.Duration
		if prep == nil {
			start := time.Now()
			for i := 0; i < n; i++ {
				op()
			}
			return time.Since(start)
		}
		for i := 0; i < n; i++ {
			prep()
			start := time.Now()
			op()
			total += time.Since(start)
		}
		return total
	}
	const batches = 7
	n := 1
	for run(n) < budget/(2*batches) && n < 1<<24 {
		n *= 2
	}
	per := make([]float64, batches)
	for b := range per {
		per[b] = float64(run(n)) / float64(n)
	}
	return median(per)
}

// replayKernels fills the replay metrics of one workload. model/examples
// are the training inputs (nil when the workload does not train); vec is
// a representative update of the workload's size.
func replayKernels(w workload, vec []float32, model nn.Model, init []float32, examples [][]int, budget time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	n := len(vec)
	chunk := vec
	if len(chunk) > chunkSize {
		chunk = chunk[:chunkSize]
	}

	if model != nil {
		r := rng.New(1)
		m["nn.local_update_us"] = timeOp(budget, nil, func() {
			sink, _ = nn.LocalUpdate(model, init, examples, nn.DefaultSGDConfig(), r)
		}) / 1e3
	}

	var packed []byte
	if w.Compress != "" {
		codec, err := compress.ByName(w.Compress)
		if err != nil {
			return nil, err
		}
		var frame []byte
		m["compress.encode_chunk_us"] = timeOp(budget, nil, func() {
			frame, _ = compress.AppendCompressedFloats(frame[:0], codec, chunk)
		}) / 1e3
		dst := make([]float32, len(chunk))
		m["compress.decode_chunk_us"] = timeOp(budget, nil, func() {
			_ = compress.DecompressFloatsInto(dst, frame)
		}) / 1e3
		m["compress.ratio"] = float64(4*len(chunk)) / float64(len(frame))
		packed = frame
	}

	// The wire codec on the two bulk messages, in the form this workload
	// ships them: packed frame, masked uint32s, or raw floats.
	up := server.UploadChunk{TaskID: taskID, SessionID: 1, NumExamples: 1}
	switch {
	case packed != nil:
		up.Packed = packed
	case w.SecAgg:
		up.Masked = make([]uint32, len(chunk))
		for i := range up.Masked {
			up.Masked[i] = uint32(i) * 2654435761
		}
	default:
		up.Data = chunk
	}
	req := &wire.Request{From: "client-1", Method: "route", Payload: server.RouteRequest{
		TaskID: taskID, Method: "upload-chunk", Payload: up, TraceID: 1,
	}}
	bin := wire.Binary{}
	var reqFrame []byte
	m["wire.encode_chunk_us"] = timeOp(budget, nil, func() {
		reqFrame, _ = bin.AppendRequest(reqFrame[:0], req)
	}) / 1e3
	decodeChunk := func() {
		r, err := bin.DecodeRequest(reqFrame)
		if err != nil {
			panic(err)
		}
		if lease, ok := r.Payload.(wire.BufferLease); ok {
			lease.ReleaseBinaryBuffers()
		}
	}
	m["wire.decode_chunk_us"] = timeOp(budget, nil, decodeChunk) / 1e3
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 1000; i++ {
		decodeChunk()
	}
	runtime.ReadMemStats(&ms1)
	m["wire.allocs_per_chunk_decode"] = float64(ms1.Mallocs-ms0.Mallocs) / 1000

	resp := &wire.Response{Payload: server.DownloadResponse{Params: vec, Version: 1}}
	var respFrame []byte
	m["wire.encode_download_us"] = timeOp(budget, nil, func() {
		respFrame, _ = bin.AppendResponse(respFrame[:0], resp)
	}) / 1e3
	m["wire.decode_download_us"] = timeOp(budget, nil, func() {
		sink, _ = bin.DecodeResponse(respFrame)
	}) / 1e3

	// Aggregation kernels at the model's size.
	buf := buffer.New(n, w.Goal, 8)
	hint := 0
	m["buffer.add_us"] = timeOp(budget, nil, func() { buf.Add(vec, 1, hint); hint++ }) / 1e3
	scratch := make([]float32, n)
	buf.ReleaseInto(scratch)
	m["buffer.release_us"] = timeOp(budget, func() {
		for i := 0; i < w.Goal; i++ {
			buf.Add(vec, 1, i)
		}
	}, func() { buf.ReleaseInto(scratch) }) / 1e3
	m["buffer.shards_speedup"] = shardsSpeedup(vec, budget)

	opt, params := fedopt.DefaultFedAdam(), make([]float32, n)
	m["fedopt.step_us"] = timeOp(budget, nil, func() { opt.Step(params, vec) }) / 1e3

	m["vecpool.getput_ns"] = timeOp(budget, nil, func() { vecpool.PutFloats(vecpool.GetFloats(n)) })

	if w.DP {
		mech := dp.New(dpConfig(1))
		work := make([]float32, n)
		m["dp.clip_us"] = timeOp(budget, func() { copy(work, vec) }, func() { mech.ClipUpdate(work) }) / 1e3
		rel := dp.Release{N: w.Goal, TotalWeight: float64(w.Goal), MaxWeight: 1}
		m["dp.noise_us"] = timeOp(budget, nil, func() { mech.NoiseRelease(work, rel) }) / 1e3
	}

	if w.SecAgg {
		if err := replaySecAgg(w, budget, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// shardsSpeedup answers ROADMAP's "commit the speedup or delete the
// machinery" for the sharded buffer: two goroutines adding concurrently,
// wall time with 1 shard over wall time with 8.
func shardsSpeedup(vec []float32, budget time.Duration) float64 {
	wall := func(shards, adds int) time.Duration {
		buf := buffer.New(len(vec), 1<<30, shards)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < numDrivers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < adds; i++ {
					buf.Add(vec, 1, g)
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	adds := 1
	for wall(8, adds) < budget/8 && adds < 1<<22 {
		adds *= 2
	}
	var one, eight []float64
	for i := 0; i < 3; i++ {
		one = append(one, float64(wall(1, adds)))
		eight = append(eight, float64(wall(8, adds)))
	}
	return median(one) / median(eight)
}

// replaySecAgg times the SecAgg steps of one session and one release at
// the workload's vector length.
func replaySecAgg(w workload, budget time.Duration, m map[string]float64) error {
	dep, err := secagg.NewDeployment(secagg.Params{
		VecLen: w.NumParams + 1, Threshold: w.Goal, Scale: 1 << 16,
	}, []byte("papaya-tsa-binary-v1"), tee.DefaultCostModel(), crand.Reader)
	if err != nil {
		return err
	}
	var fail error
	note := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	var bundles []secagg.InitialBundle
	m["secagg.bundle_us"] = timeOp(budget, nil, func() {
		bundles, err = dep.FetchInitialBundles(1)
		note(err)
	}) / 1e3
	if fail != nil {
		return fail
	}
	trust := dep.ClientTrust()
	var sess *secagg.ClientSession
	m["secagg.client_session_us"] = timeOp(budget, nil, func() {
		sess, err = secagg.NewClientSession(trust, bundles[0], crand.Reader)
		note(err)
	}) / 1e3
	if fail != nil {
		return fail
	}
	vec := make([]uint32, w.NumParams+1)
	m["secagg.mask_us"] = timeOp(budget, nil, func() {
		sink, err = sess.MaskGroupVector(vec, crand.Reader)
		note(err)
	}) / 1e3

	// One release: Goal sessions' uploads added, then the unmask.
	agg := dep.NewAggregator()
	var addNs, unmaskNs []float64
	for start := time.Now(); time.Since(start) < 2*budget || len(addNs) < 3; {
		bs, err := dep.FetchInitialBundles(w.Goal)
		if err != nil {
			return err
		}
		ups := make([]secagg.Upload, len(bs))
		for i, b := range bs {
			cs, err := secagg.NewClientSession(trust, b, crand.Reader)
			if err != nil {
				return err
			}
			if ups[i], err = cs.MaskGroupVector(vec, crand.Reader); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for _, up := range ups {
			if err := agg.Add(up); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if _, _, err := agg.UnmaskGroup(); err != nil {
			return err
		}
		addNs = append(addNs, float64(t1.Sub(t0))/float64(len(ups)))
		unmaskNs = append(unmaskNs, float64(time.Since(t1)))
	}
	m["secagg.add_us"] = median(addNs) / 1e3
	m["secagg.unmask_us"] = median(unmaskNs) / 1e3
	return fail
}

// replayTransport times the fabric alone: a no-op call on an open session
// to a node the benchmark registers, a session open, and a bulk train of
// 64 elided 16 KiB frames closed by one acknowledged call.
func replayTransport(kind string, budget time.Duration, m map[string]float64) error {
	serve, err := newFabric(kind, 1)
	if err != nil {
		return err
	}
	defer serve.Close()
	cli, err := newFabric(kind, 2)
	if err != nil {
		return err
	}
	defer cli.Close()
	const echo = "bench-echo"
	serve.Register(echo, func(string, any) (any, error) { return server.UploadResponse{OK: true}, nil })
	if _, err := cli.Discover(serve.BaseURL()); err != nil {
		return err
	}
	var fail error
	note := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	var opened transport.Session
	m["transport.open_session_us"] = timeOp(budget, func() {
		if opened != nil {
			note(opened.Close())
		}
	}, func() {
		opened, err = transport.OpenSession(cli, benchCaller, echo)
		note(err)
	}) / 1e3
	if fail != nil {
		return fail
	}
	sess := opened
	defer sess.Close()
	m["transport.rtt_us"] = timeOp(budget, nil, func() {
		_, err := sess.Call("ping", "")
		note(err)
	}) / 1e3

	es, ok := sess.(transport.ElidingSession)
	if !ok || !es.ElidesAcks() {
		return fmt.Errorf("%s fabric did not negotiate ack elision", kind)
	}
	frame := server.UploadChunk{TaskID: taskID, Data: make([]float32, chunkSize)}
	const train = 64
	perTrain := timeOp(budget, nil, func() {
		for i := 0; i < train; i++ {
			note(es.SendNoAck("bulk", frame))
		}
		_, err := es.Call("bulk", frame)
		note(err)
	})
	m["transport.bulk_mb_per_s"] = float64((train+1)*chunkSize*4) / 1e6 / (perTrain / 1e9)
	return fail
}
