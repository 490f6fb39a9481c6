package httptransport

import (
	"time"

	"repro/internal/transport/streamcore"
)

// DialForTest exposes the backend's dialer so the fail-loud conformance
// test can put a hand-built session on a real stream POST.
func (f *Fabric) DialForTest(node string) (streamcore.Conn, error) {
	return f.dial(f.BaseURL(), node, 5*time.Second)
}
