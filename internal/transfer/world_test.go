package transfer

import (
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/wire"
)

// world is one transfer fixture for either landing of the chunk mover: a
// source root, a destination root, and — for kind "wire" — a facility
// daemon on loopback serving that destination root. Behaviours both
// landings promise are tested as one table over both kinds
// (forBothMovers).
type world struct {
	kind             string
	srcRoot, dstRoot string
	manDir           string
	// dstAddr is the destination endpoint's Root: dstRoot itself for
	// "live", the daemon's host:port for "wire".
	dstAddr string
	srv     *wire.Server
	iss     *auth.Issuer
	tok     string
}

func newWorld(t *testing.T, kind string) *world {
	t.Helper()
	iss, tok := issuerAndToken(t)
	w := &world{kind: kind, srcRoot: t.TempDir(), dstRoot: t.TempDir(), manDir: t.TempDir(), iss: iss, tok: tok}
	w.dstAddr = w.dstRoot
	if kind == "wire" {
		w.srv = &wire.Server{
			Root:     w.dstRoot,
			Facility: "test",
			Verify: func(token string) error {
				_, err := iss.Verify(token, auth.ScopeTransfer)
				return err
			},
		}
		addr, err := w.srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.srv.Close() })
		w.dstAddr = addr
	}
	return w
}

// forBothMovers runs fn once per landing, each in a fresh world.
func forBothMovers(t *testing.T, fn func(t *testing.T, w *world)) {
	for _, kind := range []string{"live", "wire"} {
		t.Run(kind, func(t *testing.T) { fn(t, newWorld(t, kind)) })
	}
}

// service brings up a service over the fresh mover m, landing where the
// world's kind says — a new process as far as in-memory resume state
// goes; only the roots, m.ManifestDir and the daemon outlive it.
func (w *world) service(t *testing.T, m *ChunkMover, opts Options) *Service {
	t.Helper()
	if w.kind == "wire" {
		m.Land = &WireLanding{Token: w.tok, Timeout: 10 * time.Second}
		t.Cleanup(func() { m.Close() })
	}
	return w.serve(m, opts)
}

// serve registers the world's endpoints ("src", "dst") on a new service
// over the given mover.
func (w *world) serve(mover Mover, opts Options) *Service {
	svc := NewService(w.iss, mover, time.Now, opts)
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: w.srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: w.dstAddr})
	return svc
}
