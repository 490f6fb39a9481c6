package streamcore

import (
	"net"
	"sync"
	"testing"
	"time"
)

// pipeDialer is a Dialer whose network is net.Pipe: every dial starts a
// Serve loop answering with the recorder and records the address dialed
// plus a channel closed once that loop exits, i.e. once the client end of
// the connection was torn down.
type pipeDialer struct {
	mu     sync.Mutex
	addrs  []string
	served []chan struct{}
}

func (d *pipeDialer) dial(addr, node string, timeout time.Duration) (Conn, error) {
	c1, c2 := net.Pipe()
	served := make(chan struct{})
	d.mu.Lock()
	d.addrs = append(d.addrs, addr)
	d.served = append(d.served, served)
	d.mu.Unlock()
	go func() {
		defer close(served)
		defer c2.Close()
		Serve(NewNetConn(c2), ServeConfig{MaxFrame: 1 << 20, Prefix: "test", Counters: &Counters{},
			Invoke: (&recorder{}).invoke})
	}()
	return NewNetConn(c1), nil
}

func (d *pipeDialer) dialed() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.addrs...)
}

// TestRouteMoveDropsIdleSessions: a session parked toward a node's old
// address is torn down when AddRoute or gossip re-points the node — nothing
// would Take it again, and a parked session holds its socket until fabric
// Close — and the next Call dials the new address.
func TestRouteMoveDropsIdleSessions(t *testing.T) {
	movers := map[string]func(f *Fabric, addr string){
		"AddRoute": func(f *Fabric, addr string) { f.AddRoute("agent", addr) },
		"gossip": func(f *Fabric, addr string) {
			f.recordPeer(nodesDoc{BaseURL: "coordinator:1", Routes: map[string]string{"agent": addr}})
		},
	}
	for name, move := range movers {
		d := &pipeDialer{}
		f := NewFabric(Options{Prefix: "test", Addr: "self:1", Dial: d.dial})
		defer f.CloseSessions()
		call := func() {
			t.Helper()
			if out, err := f.Call("sel", "agent", "echo", "x"); err != nil || out != "sel:x" {
				t.Fatalf("%s: call = %v, %v", name, out, err)
			}
		}
		f.AddRoute("agent", "old:1")
		call()
		move(f, "old:1") // re-learning the same address keeps the parked session
		call()
		if got := d.dialed(); len(got) != 1 {
			t.Fatalf("%s: dialed %v before the move; the second call must reuse the parked session", name, got)
		}
		move(f, "new:2")
		select {
		case <-d.served[0]:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: session parked toward the old address survived the route move", name)
		}
		call()
		if got := d.dialed(); len(got) != 2 || got[1] != "new:2" {
			t.Fatalf("%s: dialed %v, want the post-move call to dial new:2", name, got)
		}
		f.pool.mu.Lock()
		tracked := len(f.pool.all)
		f.pool.mu.Unlock()
		if tracked != 1 {
			t.Fatalf("%s: pool tracks %d sessions, want only the one toward new:2", name, tracked)
		}
	}
}

// TestRouteMoveUnderConcurrentCalls flips a node between two addresses
// while callers borrow and park sessions toward it (the race detector's
// view of DropIdle against Take/Release): no call fails, and Close leaves
// no session behind whichever key it was parked under.
func TestRouteMoveUnderConcurrentCalls(t *testing.T) {
	d := &pipeDialer{}
	f := NewFabric(Options{Prefix: "test", Addr: "self:1", Dial: d.dial})
	f.AddRoute("agent", "a:1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if out, err := f.Call("sel", "agent", "echo", "x"); err != nil || out != "sel:x" {
					t.Errorf("call = %v, %v", out, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		f.AddRoute("agent", []string{"b:2", "a:1"}[i%2])
	}
	wg.Wait()
	f.CloseSessions()
	d.mu.Lock()
	served := d.served
	d.mu.Unlock()
	for i, ch := range served {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("session %d of %d outlived fabric Close", i, len(served))
		}
	}
}
