package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lmdata"
	"repro/internal/rng"
	"repro/internal/vecf"
)

// gradCheck compares the analytic gradient against central finite
// differences at a sample of coordinates.
func gradCheck(t *testing.T, m Model, seqs [][]int, nProbe int) {
	t.Helper()
	r := rng.New(42)
	params := m.InitParams(r)
	grad := make([]float32, m.NumParams())
	m.Gradient(params, seqs, grad)

	const eps = 1e-2
	probe := rng.New(7)
	for k := 0; k < nProbe; k++ {
		i := probe.Intn(len(params))
		orig := params[i]
		params[i] = orig + eps
		lp := m.Loss(params, seqs)
		params[i] = orig - eps
		lm := m.Loss(params, seqs)
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(grad[i])
		diff := math.Abs(numeric - analytic)
		scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
		if diff/scale > 0.08 {
			t.Fatalf("grad mismatch at %d: numeric=%v analytic=%v", i, numeric, analytic)
		}
	}
}

func smallSeqs(v int) [][]int {
	return [][]int{
		{1, 2, 3, 0, 1},
		{v - 1, v - 2, 0, 3},
		{2, 2, 2},
	}
}

func TestBilinearGradCheck(t *testing.T) {
	m := NewBilinear(8, 4)
	gradCheck(t, m, smallSeqs(8), 60)
}

func TestLSTMGradCheck(t *testing.T) {
	m := NewLSTM(8, 4, 5)
	gradCheck(t, m, smallSeqs(8), 80)
}

func TestBilinearShapes(t *testing.T) {
	m := NewBilinear(16, 4)
	if m.NumParams() != 2*16*4+16 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
	if m.VocabSize() != 16 {
		t.Fatalf("VocabSize = %d", m.VocabSize())
	}
	p := m.InitParams(rng.New(1))
	if len(p) != m.NumParams() {
		t.Fatalf("InitParams length %d", len(p))
	}
	if !vecf.AllFinite(p) {
		t.Fatal("non-finite init")
	}
}

func TestLSTMShapes(t *testing.T) {
	m := NewLSTM(16, 4, 6)
	want := 16*4 + 4*6*(4+6) + 4*6 + 16*6 + 16
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	p := m.InitParams(rng.New(1))
	if !vecf.AllFinite(p) {
		t.Fatal("non-finite init")
	}
	// Forget-gate bias block must be 1.
	_, _, bg, _, _ := m.slices(p)
	for i := 6; i < 12; i++ {
		if bg[i] != 1 {
			t.Fatalf("forget bias not initialized: %v", bg[i])
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBilinear(1, 4) },
		func() { NewBilinear(4, 0) },
		func() { NewLSTM(1, 2, 2) },
		func() { NewLSTM(4, 0, 2) },
		func() { NewLSTM(4, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLossAtInitNearUniform(t *testing.T) {
	// At random init with small weights, the predictive distribution is
	// close to uniform, so loss should be near log(V).
	for _, m := range []Model{NewBilinear(32, 8), NewLSTM(32, 8, 8)} {
		p := m.InitParams(rng.New(3))
		seqs := smallSeqs(32)
		loss := m.Loss(p, seqs)
		if math.Abs(loss-math.Log(32)) > 1.0 {
			t.Fatalf("%T init loss %v too far from log(32)=%v", m, loss, math.Log(32))
		}
	}
}

func TestEmptyAndShortSequences(t *testing.T) {
	for _, m := range []Model{NewBilinear(8, 4), NewLSTM(8, 4, 4)} {
		p := m.InitParams(rng.New(1))
		g := make([]float32, m.NumParams())
		if l := m.Loss(p, nil); l != 0 {
			t.Fatalf("%T loss on empty batch = %v", m, l)
		}
		if l := m.Loss(p, [][]int{{3}}); l != 0 {
			t.Fatalf("%T loss on length-1 seq = %v", m, l)
		}
		if l := m.Gradient(p, [][]int{{3}}, g); l != 0 {
			t.Fatalf("%T gradient on length-1 seq = %v", m, l)
		}
		for _, v := range g {
			if v != 0 {
				t.Fatalf("%T gradient nonzero on empty input", m)
			}
		}
	}
}

func TestOutOfVocabPanics(t *testing.T) {
	m := NewBilinear(8, 4)
	p := m.InitParams(rng.New(1))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: out-of-vocab token accepted", name)
			}
		}()
		f()
	}
	mustPanic("Loss", func() { m.Loss(p, [][]int{{1, 99}}) })

	// The bad token sits in a later sequence: Gradient must panic before it
	// writes any of grad.
	grad := make([]float32, m.NumParams())
	vecf.Fill(grad, 0.25)
	for _, bad := range [][][]int{
		{{1, 2, 3}, {0, 4}, {1, 99}},
		{{1, 2, 3}, {5, -1, 2}},
		{{1, 2}, {8}},
	} {
		mustPanic("Gradient", func() { m.Gradient(p, bad, grad) })
		for i, g := range grad {
			if g != 0.25 {
				t.Fatalf("Gradient on %v wrote grad[%d] = %v before panicking", bad, i, g)
			}
		}
	}
}

func TestParamLengthPanics(t *testing.T) {
	m := NewBilinear(8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong param length accepted")
		}
	}()
	m.Loss(make([]float32, 3), smallSeqs(8))
}

func TestSGDReducesLoss(t *testing.T) {
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 2, Seed: 5,
		SeqLenMin: 5, SeqLenMax: 10, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	seqs := corpus.ClientExamples(1, 0, 0.3, 200)
	m := NewBilinear(16, 8)
	params := m.InitParams(rng.New(2))
	before := m.Loss(params, seqs)
	cfg := SGDConfig{LearningRate: 0.5, Epochs: 5, BatchSize: 32, ClipNorm: 5}
	SGD(m, params, seqs, cfg, rng.New(3))
	after := m.Loss(params, seqs)
	if after >= before-0.1 {
		t.Fatalf("SGD did not reduce loss: before=%v after=%v", before, after)
	}
}

func TestLSTMSGDReducesLoss(t *testing.T) {
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 2, Seed: 5,
		SeqLenMin: 5, SeqLenMax: 10, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	seqs := corpus.ClientExamples(1, 0, 0.3, 60)
	m := NewLSTM(16, 6, 8)
	params := m.InitParams(rng.New(2))
	before := m.Loss(params, seqs)
	cfg := SGDConfig{LearningRate: 0.3, Epochs: 4, BatchSize: 16, ClipNorm: 5}
	SGD(m, params, seqs, cfg, rng.New(3))
	after := m.Loss(params, seqs)
	if after >= before-0.05 {
		t.Fatalf("LSTM SGD did not reduce loss: before=%v after=%v", before, after)
	}
}

func TestLocalUpdateDoesNotMutateInitial(t *testing.T) {
	m := NewBilinear(8, 4)
	initial := m.InitParams(rng.New(1))
	snapshot := vecf.Clone(initial)
	delta, _ := LocalUpdate(m, initial, smallSeqs(8), DefaultSGDConfig(), rng.New(2))
	for i := range initial {
		if initial[i] != snapshot[i] {
			t.Fatal("LocalUpdate mutated the initial params")
		}
	}
	// initial + delta must equal trained params: verify delta is nonzero.
	if vecf.Norm2(delta) == 0 {
		t.Fatal("LocalUpdate produced a zero delta")
	}
}

func TestSGDDeterministicGivenRNG(t *testing.T) {
	m := NewBilinear(8, 4)
	seqs := smallSeqs(8)
	p1 := m.InitParams(rng.New(1))
	p2 := vecf.Clone(p1)
	SGD(m, p1, seqs, DefaultSGDConfig(), rng.New(9))
	SGD(m, p2, seqs, DefaultSGDConfig(), rng.New(9))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("SGD not deterministic")
		}
	}
}

func TestSGDEmptyDataset(t *testing.T) {
	m := NewBilinear(8, 4)
	p := m.InitParams(rng.New(1))
	snapshot := vecf.Clone(p)
	loss := SGD(m, p, nil, DefaultSGDConfig(), rng.New(2))
	if loss != 0 {
		t.Fatalf("loss on empty dataset = %v", loss)
	}
	for i := range p {
		if p[i] != snapshot[i] {
			t.Fatal("SGD moved params with no data")
		}
	}
}

func TestSGDConfigValidate(t *testing.T) {
	bad := []SGDConfig{
		{LearningRate: 0, Epochs: 1, BatchSize: 1},
		{LearningRate: 1, Epochs: 0, BatchSize: 1},
		{LearningRate: 1, Epochs: 1, BatchSize: 0},
		{LearningRate: 1, Epochs: 1, BatchSize: 1, ClipNorm: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultSGDConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPerplexity(t *testing.T) {
	if p := Perplexity(0); p != 1 {
		t.Fatalf("Perplexity(0) = %v", p)
	}
	if p := Perplexity(math.Log(64)); math.Abs(p-64) > 1e-9 {
		t.Fatalf("Perplexity(log 64) = %v", p)
	}
	if p := Perplexity(1e9); math.IsInf(p, 0) {
		t.Fatal("Perplexity overflowed")
	}
}

// Property: gradients are finite for arbitrary valid sequences.
func TestQuickGradientFinite(t *testing.T) {
	m := NewBilinear(8, 3)
	p := m.InitParams(rng.New(4))
	g := make([]float32, m.NumParams())
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		seq := make([]int, len(raw))
		for i, b := range raw {
			seq[i] = int(b) % 8
		}
		vecf.Zero(g)
		loss := m.Gradient(p, [][]int{seq}, g)
		return !math.IsNaN(loss) && !math.IsInf(loss, 0) && vecf.AllFinite(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Training on dialect-pure data must fit that dialect better than another
// dialect: the non-IID property the fairness experiments rely on.
func TestDialectSpecialization(t *testing.T) {
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 2, Seed: 11,
		SeqLenMin: 6, SeqLenMax: 10, BranchFactor: 2, ZipfS: 1.5, SmoothMass: 0.03,
	})
	train := corpus.ClientExamples(1, 0, 1.0, 400)
	evalSame := corpus.EvalSet(0, 1.0, 200, "same")
	evalOther := corpus.EvalSet(1, 1.0, 200, "other")

	m := NewBilinear(16, 8)
	params := m.InitParams(rng.New(5))
	SGD(m, params, train, SGDConfig{LearningRate: 0.5, Epochs: 8, BatchSize: 32, ClipNorm: 5}, rng.New(6))

	lossSame := m.Loss(params, evalSame)
	lossOther := m.Loss(params, evalOther)
	if lossSame >= lossOther {
		t.Fatalf("no dialect specialization: same=%v other=%v", lossSame, lossOther)
	}
}

// BenchmarkBilinearGradient times one batch's Gradient at three shapes:
// 64x16; device_16k's, a device's 16 examples on the 256x32 model as the
// benchmark harness builds them; and sim_fedbuff's, a 32-example batch on
// the paper-scale world's 32x8 model.
func BenchmarkBilinearGradient(b *testing.B) {
	device := lmdata.Config{
		VocabSize: 256, NumDialects: 4, Seed: 12,
		SeqLenMin: 6, SeqLenMax: 14, BranchFactor: 4, ZipfS: 1.2, SmoothMass: 0.05,
	}
	paper := lmdata.DefaultConfig()
	paper.VocabSize = 32
	for _, bc := range []struct {
		name string
		v, d int
		seqs [][]int
	}{
		{"64x16", 64, 16, lmdata.NewCorpus(lmdata.DefaultConfig()).ClientExamples(1, 0, 0.5, 32)},
		{"256x32", 256, 32, lmdata.NewCorpus(device).ClientExamples(1, 1, 0.9, 16)},
		{"32x8", 32, 8, lmdata.NewCorpus(paper).ClientExamples(1, 0, 0.5, 32)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewBilinear(bc.v, bc.d)
			p := m.InitParams(rng.New(1))
			g := make([]float32, m.NumParams())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vecf.Zero(g)
				m.Gradient(p, bc.seqs, g)
			}
		})
	}
}

func BenchmarkLSTMGradient(b *testing.B) {
	m := NewLSTM(64, 16, 16)
	p := m.InitParams(rng.New(1))
	g := make([]float32, m.NumParams())
	corpus := lmdata.NewCorpus(lmdata.DefaultConfig())
	seqs := corpus.ClientExamples(1, 0, 0.5, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecf.Zero(g)
		m.Gradient(p, seqs, g)
	}
}

func BenchmarkClientLocalUpdate(b *testing.B) {
	m := NewBilinear(64, 16)
	p := m.InitParams(rng.New(1))
	corpus := lmdata.NewCorpus(lmdata.DefaultConfig())
	seqs := corpus.ClientExamples(1, 0, 0.5, 30)
	cfg := DefaultSGDConfig()
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = LocalUpdate(m, p, seqs, cfg, r)
	}
}

// TestProxMuShrinksDrift verifies the FedProx proximal term: with a large
// mu the local delta must be pulled sharply toward the anchor (the initial
// params), and mu=0 must be the plain SGD path bit for bit.
func TestProxMuShrinksDrift(t *testing.T) {
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: 16, NumDialects: 2, Seed: 5,
		SeqLenMin: 5, SeqLenMax: 10, BranchFactor: 3, ZipfS: 1.3, SmoothMass: 0.05,
	})
	seqs := corpus.ClientExamples(1, 0, 0.3, 120)
	m := NewBilinear(16, 8)
	initial := m.InitParams(rng.New(2))

	cfg := SGDConfig{LearningRate: 0.5, Epochs: 3, BatchSize: 16, ClipNorm: 5}
	plain, _ := LocalUpdate(m, initial, seqs, cfg, rng.New(3))

	cfgZero := cfg
	cfgZero.ProxMu = 0
	zero, _ := LocalUpdate(m, initial, seqs, cfgZero, rng.New(3))
	for i := range plain {
		if plain[i] != zero[i] {
			t.Fatal("ProxMu=0 changed the plain SGD path")
		}
	}

	cfgProx := cfg
	cfgProx.ProxMu = 10
	prox, _ := LocalUpdate(m, initial, seqs, cfgProx, rng.New(3))
	np, nq := vecf.Norm2(plain), vecf.Norm2(prox)
	if nq == 0 {
		t.Fatal("proximal SGD produced a zero delta")
	}
	if nq >= 0.5*np {
		t.Fatalf("mu=10 did not shrink drift: ||prox||=%v vs ||plain||=%v", nq, np)
	}

	// Determinism with the proximal term enabled.
	again, _ := LocalUpdate(m, initial, seqs, cfgProx, rng.New(3))
	for i := range prox {
		if prox[i] != again[i] {
			t.Fatal("proximal SGD not deterministic")
		}
	}

	// Negative mu is a configuration error.
	bad := cfg
	bad.ProxMu = -0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative ProxMu accepted")
	}
}

// perTokenGradient is the reference the grouped Bilinear.Gradient must
// match: one forward and backward pass per token, accumulated in token
// order. It returns the mean per-token loss.
func perTokenGradient(m *Bilinear, params []float32, seqs [][]int, grad []float32) float64 {
	e, u, b := m.slices(params)
	ge, gu, gb := m.slices(grad)
	count := 0
	for _, seq := range seqs {
		if len(seq) > 1 {
			count += len(seq) - 1
		}
	}
	if count == 0 {
		return 0
	}
	inv := float32(1 / float64(count))
	logits := make([]float32, m.V)
	probs := make([]float32, m.V)
	dh := make([]float32, m.D)
	var total float64
	for _, seq := range seqs {
		for t := 0; t+1 < len(seq); t++ {
			x, y := seq[t], seq[t+1]
			h := e[x*m.D : (x+1)*m.D]
			vecf.MatVec(logits, u, m.V, m.D, h)
			vecf.Add(logits, b)
			logZ := vecf.Softmax(probs, logits)
			total += logZ - float64(logits[y])
			probs[y] -= 1
			vecf.AXPY(gb, inv, probs)
			vecf.OuterAccum(gu, m.V, m.D, inv, probs, h)
			vecf.MatTVec(dh, u, m.V, m.D, probs)
			vecf.AXPY(ge[x*m.D:(x+1)*m.D], inv, dh)
		}
	}
	return total / float64(count)
}

// bilinearCase is one (model, params, batch) the grouped gradient is
// checked on. Biases are random so the bias gradient is not trivially
// uniform.
type bilinearCase struct {
	name   string
	m      *Bilinear
	params []float32
	seqs   [][]int
}

func bilinearCases() []bilinearCase {
	var cases []bilinearCase
	for _, shape := range [][2]int{{256, 32}, {32, 8}, {37, 5}} {
		v, d := shape[0], shape[1]
		m := NewBilinear(v, d)
		r := rng.New(uint64(v))
		params := m.InitParams(r)
		_, _, b := m.slices(params)
		for i := range b {
			b[i] = float32(0.5 * r.NormFloat64())
		}
		corpus := lmdata.NewCorpus(lmdata.Config{
			VocabSize: v, NumDialects: 4, Seed: 12,
			SeqLenMin: 6, SeqLenMax: 14, BranchFactor: 4, ZipfS: 1.2, SmoothMass: 0.05,
		})
		lm := corpus.ClientExamples(3, 1, 0.9, 16)
		dup := append(append(append([][]int{}, lm[:4]...), lm[:4]...), lm[0])
		add := func(name string, seqs [][]int) {
			cases = append(cases, bilinearCase{fmt.Sprintf("%dx%d/%s", v, d, name), m, params, seqs})
		}
		add("lmdata", lm)
		add("lmdata-32", corpus.ClientExamples(4, 2, 0.5, 32))
		add("empty", nil)
		add("no-pairs", [][]int{{3}, {}, {v - 1}})
		add("one-token", [][]int{{2, 2, 2, 2, 2}, {2, 2}, {2}})
		add("last-context", [][]int{{v - 1, 0}, {v - 1, v - 1, 1}, {0, v - 1}})
		add("duplicates", dup)
	}
	return cases
}

func TestBilinearGradientMatchesPerToken(t *testing.T) {
	for _, c := range bilinearCases() {
		t.Run(c.name, func(t *testing.T) {
			want := make([]float32, c.m.NumParams())
			wantLoss := perTokenGradient(c.m, c.params, c.seqs, want)
			got := make([]float32, c.m.NumParams())
			gotLoss := c.m.Gradient(c.params, c.seqs, got)
			evalLoss := c.m.Loss(c.params, c.seqs)
			for _, l := range []float64{gotLoss, evalLoss} {
				if math.Abs(l-wantLoss) > 1e-12*math.Abs(wantLoss) {
					t.Fatalf("loss %v, per-token %v", l, wantLoss)
				}
			}
			scale := vecf.MaxAbs(want)
			var l1, l1Ref float64
			for i := range want {
				diff := math.Abs(float64(got[i]) - float64(want[i]))
				if diff > 1e-6*scale {
					t.Fatalf("grad[%d] = %v, per-token %v (max|g| %v)", i, got[i], want[i], scale)
				}
				l1 += diff
				l1Ref += math.Abs(float64(want[i]))
			}
			if l1Ref > 0 {
				t.Logf("relative L1 gap %.3g", l1/l1Ref)
			}
		})
	}
}

// groupedGradient is the reference the blocked Bilinear.Gradient must
// match bit for bit: one forward and one backward pass per distinct
// context, in increasing context order, on the 1-wide kernels. It returns
// the mean per-token loss.
func groupedGradient(m *Bilinear, params []float32, seqs [][]int, grad []float32) float64 {
	e, u, b := m.slices(params)
	ge, gu, gb := m.slices(grad)
	byContext := make([][]int, m.V)
	count := 0
	for _, seq := range seqs {
		for t := 0; t+1 < len(seq); t++ {
			byContext[seq[t]] = append(byContext[seq[t]], seq[t+1])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := float32(1 / float64(count))
	logits := make([]float32, m.V)
	dlogits := make([]float32, m.V)
	dh := make([]float32, m.D)
	var total float64
	for x, next := range byContext {
		if len(next) == 0 {
			continue
		}
		h := e[x*m.D : (x+1)*m.D]
		vecf.MatVec(logits, u, m.V, m.D, h)
		vecf.Add(logits, b)
		logZ := vecf.Softmax(dlogits, logits)
		for _, y := range next {
			total += logZ - float64(logits[y])
		}
		vecf.Scale(dlogits, float32(len(next)))
		for _, y := range next {
			dlogits[y] -= 1
		}
		vecf.AXPY(gb, inv, dlogits)
		vecf.OuterAccum(gu, m.V, m.D, inv, dlogits, h)
		vecf.MatTVec(dh, u, m.V, m.D, dlogits)
		vecf.AXPY(ge[x*m.D:(x+1)*m.D], inv, dh)
	}
	return total / float64(count)
}

// underflowCase is a batch whose biases are spread over hundreds of nats,
// so that some probabilities underflow to 0 (the kernels skip a row of U
// for them) and some are subnormal with inv*p == 0 (the U gradient skips
// the row, h's gradient does not).
func underflowCase() bilinearCase {
	const v, d = 64, 16
	m := NewBilinear(v, d)
	r := rng.New(99)
	params := m.InitParams(r)
	_, _, b := m.slices(params)
	for i := range b {
		b[i] = -float32(i%8) * 17
	}
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: v, NumDialects: 4, Seed: 12,
		SeqLenMin: 6, SeqLenMax: 14, BranchFactor: 4, ZipfS: 1.2, SmoothMass: 0.05,
	})
	return bilinearCase{"64x16/underflow", m, params, corpus.ClientExamples(5, 0, 0.9, 16)}
}

// The underflow case must reach both skip branches, or it tests nothing
// the other cases do not.
func TestUnderflowCaseSkips(t *testing.T) {
	c := underflowCase()
	s := getScratch(c.m, c.seqs)
	defer scratchPool.Put(s)
	inv := float32(1 / float64(s.count))
	e, u, b := c.m.slices(c.params)
	logits := make([]float32, c.m.V)
	probs := make([]float32, c.m.V)
	var zero, tiny int
	for _, x := range s.ctx {
		vecf.MatVec(logits, u, c.m.V, c.m.D, e[int(x)*c.m.D:int(x+1)*c.m.D])
		vecf.Add(logits, b)
		vecf.Softmax(probs, logits)
		for _, p := range probs {
			switch {
			case p == 0:
				zero++
			case inv*p == 0:
				tiny++
			}
		}
	}
	if zero == 0 || tiny == 0 {
		t.Fatalf("%d probabilities are 0 and %d vanish when scaled by 1/%d; want some of each", zero, tiny, s.count)
	}
}

// The blocked Gradient and Loss are the grouped per-context pass, bit for
// bit, whether the contexts fill blocks of four or leave a tail.
func TestBilinearGradientMatchesGrouped(t *testing.T) {
	for _, c := range append(bilinearCases(), underflowCase()) {
		t.Run(c.name, func(t *testing.T) {
			// Both accumulate into a gradient that is not zero.
			want := make([]float32, c.m.NumParams())
			vecf.Fill(want, 0.125)
			got := vecf.Clone(want)
			wantLoss := groupedGradient(c.m, c.params, c.seqs, want)
			gotLoss := c.m.Gradient(c.params, c.seqs, got)
			evalLoss := c.m.Loss(c.params, c.seqs)
			for _, l := range []float64{gotLoss, evalLoss} {
				if math.Float64bits(l) != math.Float64bits(wantLoss) {
					t.Fatalf("loss %v, grouped %v", l, wantLoss)
				}
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("grad[%d] = %v, grouped %v", i, got[i], want[i])
				}
			}
		})
	}
}

// groupedModel is a Bilinear whose Gradient is the grouped reference.
type groupedModel struct{ *Bilinear }

func (g groupedModel) Gradient(params []float32, seqs [][]int, grad []float32) float64 {
	return groupedGradient(g.Bilinear, params, seqs, grad)
}

// Differences too small to show in one gradient can grow over a training
// run; 300 SGD steps at device_16k's shape must end on the same bits.
func TestSGDTrajectoryMatchesGrouped(t *testing.T) {
	const v, d = 256, 32
	m := NewBilinear(v, d)
	corpus := lmdata.NewCorpus(lmdata.Config{
		VocabSize: v, NumDialects: 4, Seed: 12,
		SeqLenMin: 6, SeqLenMax: 14, BranchFactor: 4, ZipfS: 1.2, SmoothMass: 0.05,
	})
	seqs := corpus.ClientExamples(7, 2, 0.9, 16)
	cfg := SGDConfig{LearningRate: 0.5, Epochs: 75, BatchSize: 4, ClipNorm: 5}
	got := m.InitParams(rng.New(3))
	want := vecf.Clone(got)
	gotLoss := SGD(m, got, seqs, cfg, rng.New(4))
	wantLoss := SGD(groupedModel{m}, want, seqs, cfg, rng.New(4))
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("final-epoch loss %v, grouped %v", gotLoss, wantLoss)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("params[%d] = %v after 300 steps, grouped %v", i, got[i], want[i])
		}
	}
}

func TestBilinearGradientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range bilinearCases() {
		grad := make([]float32, c.m.NumParams())
		c.m.Gradient(c.params, c.seqs, grad) // warm the scratch pool
		if n := testing.AllocsPerRun(50, func() { c.m.Gradient(c.params, c.seqs, grad) }); n != 0 {
			t.Fatalf("%s: Gradient allocates %v times per call", c.name, n)
		}
		if n := testing.AllocsPerRun(50, func() { c.m.Loss(c.params, c.seqs) }); n != 0 {
			t.Fatalf("%s: Loss allocates %v times per call", c.name, n)
		}
	}
}

// One Bilinear serves every trainer of a run, and models of different
// sizes share the scratch pool: concurrent calls must give the serial
// results bit for bit.
func TestBilinearGradientConcurrent(t *testing.T) {
	var cases []bilinearCase
	for _, c := range bilinearCases() {
		if c.m.V != 37 && len(c.seqs) > 0 {
			cases = append(cases, c)
		}
	}
	serial := make([][]float32, len(cases))
	losses := make([]float64, len(cases))
	for i, c := range cases {
		serial[i] = make([]float32, c.m.NumParams())
		losses[i] = c.m.Gradient(c.params, c.seqs, serial[i])
	}
	const workers, rounds = 8, 2
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds*len(cases); k++ {
				i := (w + k) % len(cases)
				c := cases[i]
				grad := make([]float32, c.m.NumParams())
				loss := c.m.Gradient(c.params, c.seqs, grad)
				if loss != losses[i] || !slices.Equal(grad, serial[i]) {
					errs <- c.name
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: a concurrent Gradient differs from the serial one", name)
	}
}

// SGD's gradient scratch comes from a pool: after the first call, a call
// allocates only its example order and batch, never a model-sized vector.
func TestSGDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := bilinearCases()[0]
	params := vecf.Clone(c.params)
	cfg := DefaultSGDConfig()
	r := rng.New(1)
	SGD(c.m, params, c.seqs, cfg, r)
	if n := testing.AllocsPerRun(50, func() { SGD(c.m, params, c.seqs, cfg, r) }); n > 2 {
		t.Fatalf("SGD allocates %v times per call, want at most 2", n)
	}
}
