package client

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/transport"
)

func TestExampleStoreRetentionByCount(t *testing.T) {
	s := NewExampleStore(3, 0)
	now := time.Now()
	for i := 0; i < 5; i++ {
		s.Add([]int{i}, now)
	}
	ex := s.Examples(now)
	if len(ex) != 3 {
		t.Fatalf("retained %d, want 3", len(ex))
	}
	// Oldest evicted first.
	if ex[0][0] != 2 || ex[2][0] != 4 {
		t.Fatalf("wrong examples retained: %v", ex)
	}
}

func TestExampleStoreRetentionByAge(t *testing.T) {
	s := NewExampleStore(0, time.Hour)
	base := time.Now()
	s.Add([]int{1}, base.Add(-2*time.Hour)) // expired
	s.Add([]int{2}, base.Add(-30*time.Minute))
	ex := s.Examples(base)
	if len(ex) != 1 || ex[0][0] != 2 {
		t.Fatalf("age retention failed: %v", ex)
	}
	// Eviction is persistent.
	if s.Len() != 1 {
		t.Fatalf("Len after eviction = %d", s.Len())
	}
}

func TestExampleStoreUnlimited(t *testing.T) {
	s := NewExampleStore(0, 0)
	now := time.Now()
	for i := 0; i < 100; i++ {
		s.Add([]int{i}, now.Add(-time.Duration(i)*time.Hour))
	}
	if len(s.Examples(now)) != 100 {
		t.Fatal("unlimited store evicted")
	}
}

func TestDeviceEligibility(t *testing.T) {
	cases := []struct {
		state DeviceState
		want  bool
	}{
		{DeviceState{true, true, true}, true},
		{DeviceState{false, true, true}, false},
		{DeviceState{true, false, true}, false},
		{DeviceState{true, true, false}, false},
		{DeviceState{}, false},
	}
	for i, c := range cases {
		if c.state.Eligible() != c.want {
			t.Fatalf("case %d: Eligible() = %v", i, c.state.Eligible())
		}
	}
}

func newTestRuntime(selectors []string, net transport.Fabric) *Runtime {
	model := nn.NewBilinear(8, 3)
	store := NewExampleStore(0, 0)
	store.Add([]int{1, 2, 3}, time.Now())
	return &Runtime{
		ClientID:     1,
		Capabilities: []string{"lm"},
		Store:        store,
		Exec:         &SGDExecutor{Model: model, Config: nn.DefaultSGDConfig(), Rng: rng.New(1)},
		Net:          net,
		Selectors:    selectors,
		State:        DeviceState{Idle: true, Charging: true, Unmetered: true},
		Random:       rand.Reader,
	}
}

func TestRunOnceNotEligible(t *testing.T) {
	r := newTestRuntime(nil, transport.NewNetwork(1))
	r.State.Idle = false
	if _, err := r.RunOnce(time.Now()); !errors.Is(err, ErrNotEligible) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunOnceNoExamples(t *testing.T) {
	r := newTestRuntime(nil, transport.NewNetwork(1))
	r.Store = NewExampleStore(0, 0)
	if _, err := r.RunOnce(time.Now()); !errors.Is(err, ErrNoExamples) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunOnceNoSelector(t *testing.T) {
	r := newTestRuntime([]string{"ghost"}, transport.NewNetwork(1))
	if _, err := r.RunOnce(time.Now()); !errors.Is(err, ErrNoSelector) {
		t.Fatalf("err = %v", err)
	}
}

func TestMinIntervalEnforced(t *testing.T) {
	net := transport.NewNetwork(1)
	// A selector that always accepts, so lastParticipation is set.
	net.Register("sel", func(method string, payload any) (any, error) {
		return acceptAll(method, payload)
	})
	r := newTestRuntime([]string{"sel"}, net)
	r.MinInterval = time.Hour
	now := time.Now()
	if _, err := r.RunOnce(now); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := r.RunOnce(now.Add(time.Minute)); !errors.Is(err, ErrTooSoon) {
		t.Fatalf("err = %v, want ErrTooSoon", err)
	}
	if _, err := r.RunOnce(now.Add(2 * time.Hour)); err != nil {
		t.Fatalf("after interval: %v", err)
	}
}

func TestRejectionDoesNotCountAsParticipation(t *testing.T) {
	net := transport.NewNetwork(1)
	net.Register("sel", func(method string, payload any) (any, error) {
		return rejectCheckin(method, payload)
	})
	r := newTestRuntime([]string{"sel"}, net)
	r.MinInterval = time.Hour
	now := time.Now()
	res, err := r.RunOnce(now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Rejected {
		t.Fatalf("outcome = %s", res.Outcome)
	}
	// A rejected check-in must not start the participation interval.
	if _, err := r.RunOnce(now.Add(time.Minute)); errors.Is(err, ErrTooSoon) {
		t.Fatal("rejection consumed the participation budget")
	}
}

func TestSGDExecutorProducesDelta(t *testing.T) {
	model := nn.NewBilinear(8, 3)
	e := &SGDExecutor{Model: model, Config: nn.DefaultSGDConfig(), Rng: rng.New(3)}
	params := model.InitParams(rng.New(4))
	delta, loss := e.Train(params, [][]int{{1, 2, 3, 4}, {2, 3, 4}})
	if len(delta) != model.NumParams() {
		t.Fatalf("delta length %d", len(delta))
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	zero := true
	for _, v := range delta {
		if v != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("training produced a zero delta")
	}
}
