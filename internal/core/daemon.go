package core

import (
	"os"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/detect"
	"picoprobe/internal/wire"
)

// NewFacilityDaemon is the one place the facility side is wired — what
// picoprobe-facilityd serves, the counterpart of assemble on the
// acquisition side: a wire server confined to the storage root, verifying
// session tokens against the shared secret, dispatching compute into a
// local pool of workers running the real analysis functions, which write
// their artifacts under outDir. The caller sets the serving limits
// (MaxSessions, IdleTimeout, Logf) and starts it.
func NewFacilityDaemon(id, root, outDir, secret string, workers int) (*wire.Server, error) {
	for _, dir := range []string{root, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	issuer := auth.NewIssuer([]byte(secret), nil)
	registry := compute.NewRegistry()
	RegisterAnalysisFunctions(registry, outDir, detect.DefaultParams())
	csvc := compute.NewService(issuer, registry, compute.NewLocalExecutor(workers, nil), time.Now)
	// The daemon's own compute token: wire sessions were already
	// authenticated at Hello, so dispatches run under this identity.
	ctoken, err := issuer.Issue("facilityd@"+id, []string{auth.ScopeCompute}, 365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	return &wire.Server{
		Root:     root,
		Facility: id,
		Verify: func(token string) error {
			_, err := issuer.Verify(token, auth.ScopeTransfer)
			return err
		},
		Compute:      csvc,
		ComputeToken: ctoken,
	}, nil
}
