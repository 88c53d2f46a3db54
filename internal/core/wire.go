package core

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/flows"
	"picoprobe/internal/transfer"
	"picoprobe/internal/wire"
)

// WireOptions configures a wire-backed deployment: the acquisition side
// of the pipeline running locally (watcher, flows engine, catalog),
// with the facility side — storage, compute pool — behind a
// picoprobe-facilityd daemon reached over TCP.
type WireOptions struct {
	// InstrumentRoot is the local transfer directory (source endpoint
	// root), exactly as in LiveOptions.
	InstrumentRoot string
	// DaemonAddr is the facility daemon's host:port.
	DaemonAddr string
	// Secret is the shared HMAC secret the daemon was started with;
	// session tokens are minted from it and verified offline on both
	// ends.
	Secret string
	// Policy is the engine's completion-detection policy (default: 20 ms
	// push — the transfer, publication and compute states all signal
	// completion, the daemon's compute jobs through held Jobs, so a
	// one-facility wire deployment polls nothing).
	Policy flows.Policy
	// TransferChunkBytes / TransferStreams frame the wire transfers as
	// in LiveOptions (<= 0 = the same defaults). One chunk rides in one
	// frame, so a chunk over wire.MaxChunkBytes is refused.
	TransferChunkBytes int64
	TransferStreams    int
	// Timeout is the per-op wire deadline (0 = wire.DefaultTimeout).
	Timeout time.Duration
	// Dial overrides the wire dialer (nil = plain TCP); the fault tests
	// inject netfault wrappers here.
	Dial func(addr string) (net.Conn, error)
}

// WireSecretDefault is the shared secret the daemon and -wire
// experiment use unless overridden — a deployment would provision a
// real one per facility.
const WireSecretDefault = "picoprobe-wire"

// NewWireDeployment wires the acquisition side against a facility
// daemon. It is the same assembly as an in-process deployment and runs
// the same flow definitions — RunFile, RunBatch, FanOutDefinition all
// carry over — with two substitutions underneath: the transfer
// provider's mover lands its chunks over the wire (transfer.WireLanding),
// and the compute provider's backend dispatches to the daemon's pool
// instead of a local executor. The catalog stays local: analysis entries
// come back in the compute results and are published into the
// acquisition-side index, so downstream search is identical across paths.
func NewWireDeployment(opts WireOptions) (*LiveDeployment, error) {
	if opts.InstrumentRoot == "" || opts.DaemonAddr == "" {
		return nil, fmt.Errorf("core: wire deployment needs InstrumentRoot and DaemonAddr")
	}
	// The destination endpoint's Root carries the daemon address — the
	// wire landing's one deviation from the local one's filesystem view.
	daemon := transfer.Endpoint{ID: EndpointEagle, Name: "Facility daemon", Root: opts.DaemonAddr}
	return NewWireFederation(opts, []transfer.Endpoint{daemon}, nil)
}

// NewWireFederation assembles the acquisition side against one daemon
// per endpoint (Root = host:port; opts.DaemonAddr is not read). With
// more than one, place decides where each state runs among them. The
// deployment's Close drops the mover's and the compute backends' pooled
// connections.
func NewWireFederation(opts WireOptions, daemons []transfer.Endpoint, place Placement) (*LiveDeployment, error) {
	if err := os.MkdirAll(opts.InstrumentRoot, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	chunkBytes, streams := framing(opts.TransferChunkBytes, opts.TransferStreams)
	if chunkBytes > wire.MaxChunkBytes {
		return nil, fmt.Errorf("core: wire transfer chunk of %d bytes does not fit one frame (frame limit %d bytes, largest chunk %d)",
			chunkBytes, wire.DefaultMaxFrame, wire.MaxChunkBytes)
	}
	secret := opts.Secret
	if secret == "" {
		secret = WireSecretDefault
	}

	var conns []io.Closer
	a := assembly{
		secret:    secret,
		options:   LiveOptions{InstrumentRoot: opts.InstrumentRoot, TransferChunkBytes: chunkBytes, TransferStreams: streams},
		policy:    opts.Policy,
		place:     place,
		wirePaths: true,
		mover: func(token string) transfer.Mover {
			m := &transfer.ChunkMover{
				ChunkBytes: chunkBytes,
				Streams:    streams,
				// Resume state is client-side by design: manifests live beside
				// the SOURCE root, so a daemon lost and restarted changes
				// nothing about what the client knows it still owes.
				ManifestDir: filepath.Join(opts.InstrumentRoot, ".picoprobe-manifests"),
				Land:        &transfer.WireLanding{Token: token, Dial: opts.Dial, Timeout: opts.Timeout},
			}
			conns = append(conns, m)
			return m
		},
	}
	for _, d := range daemons {
		a.sites = append(a.sites, site{endpoint: d, backend: func(issuer *auth.Issuer, token string) ComputeBackend {
			cl := &wire.Client{Addr: d.Root, Token: token, Dial: opts.Dial, Timeout: opts.Timeout}
			conns = append(conns, cl)
			return &WireComputeBackend{Issuer: issuer, Client: cl}
		}})
	}
	dep, err := assemble(a)
	if err != nil {
		return nil, err
	}
	dep.conns = conns
	return dep, nil
}

// WireComputeBackend adapts a facility daemon's dispatch service to the
// ComputeBackend seam: Submit becomes a wire Dispatch, Status a wire
// Job, and Watch a held Job the daemon answers when the task ends.
// Tokens are verified locally first (same issuer secret as the daemon),
// so a bad token fails fast without a round trip.
type WireComputeBackend struct {
	Issuer *auth.Issuer
	Client *wire.Client
}

// Submit implements ComputeBackend.
func (b *WireComputeBackend) Submit(token, fnName string, args compute.Args) (string, error) {
	if _, err := b.Issuer.Verify(token, auth.ScopeCompute); err != nil {
		return "", err
	}
	return b.Client.Dispatch(fnName, args)
}

// Status implements ComputeBackend.
func (b *WireComputeBackend) Status(token, taskID string) (compute.TaskView, error) {
	if _, err := b.Issuer.Verify(token, auth.ScopeCompute); err != nil {
		return compute.TaskView{}, err
	}
	j, err := b.Client.Job(taskID)
	if err != nil {
		return compute.TaskView{}, err
	}
	view := compute.TaskView{
		ID:     taskID,
		Status: compute.TaskStatus(j.Status),
		Error:  j.Error,
		Result: compute.Result(j.Result),
		NodeID: j.NodeID,
	}
	if j.Started != 0 {
		view.Started = time.Unix(0, j.Started)
	}
	if j.Completed != 0 {
		view.Completed = time.Unix(0, j.Completed)
	}
	return view, nil
}

// Watch calls done once the daemon reports the task no longer ACTIVE, or
// on the first error (a remote one, a closed client, a transport failure
// the client's own retry did not absorb): one goroutine issues held Jobs
// back to back until then. Status reads the outcome either way; an
// action it still finds ACTIVE goes back to being polled.
func (b *WireComputeBackend) Watch(taskID string, done func()) {
	go func() {
		defer done()
		for {
			j, err := b.Client.WaitJob(taskID, wire.MaxJobHold)
			if err != nil || compute.TaskStatus(j.Status) != compute.StatusActive {
				return
			}
		}
	}()
}
