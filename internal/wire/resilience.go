package wire

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// This file is the client-side resilience vocabulary shared by every
// wire consumer (DESIGN.md §12): a retryable/permanent classification
// over the protocol's error codes, full-jitter exponential backoff, and
// the circuit-breaker sentinel. The transfer service and the wire landing
// both consult Permanent before burning a retry, and the client's busy
// retries and the wire landing's attempt retries are both spaced with a
// Backoff — one taxonomy, one delay policy, instead of per-call-site
// knobs that drift apart.

// ErrCircuitOpen is returned by client ops refused fail-fast because
// the per-daemon circuit breaker is open: the daemon failed
// breakerThreshold consecutive transport-level exchanges, and until the
// cooldown admits a half-open probe there is no point queueing more
// work behind a dead socket. It classifies as retryable — the daemon
// may be back any moment — but callers should space retries with a
// Backoff rather than spin.
var ErrCircuitOpen = errors.New("wire: circuit open")

// permanentCodes are the remote errors retrying cannot fix: the request
// itself is wrong (auth, malformed, unknown object), so every retry
// would burn an attempt to receive the same answer.
var permanentCodes = map[string]bool{
	CodeAuth:       true,
	CodeBadRequest: true,
	CodeNotFound:   true,
}

// Permanent reports whether err is a failure no retry can fix. Only
// explicitly classified remote codes are permanent; transport errors,
// IO/checksum/busy/corrupt remote errors, an open breaker and anything
// unrecognized are all retryable — when unsure, the taxonomy errs
// toward retrying, because the durability story (chunk manifests,
// verified merge) makes a wasted retry cheap and a wrongly abandoned
// transfer expensive.
func Permanent(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && permanentCodes[re.Code]
}

// Retryable is Permanent's complement for a nil-safe call site.
func Retryable(err error) bool {
	return err != nil && !Permanent(err)
}

// Backoff computes full-jitter exponential delays: attempt k sleeps
// uniform[0, min(Max, Base<<k)). Full jitter (the AWS architecture-blog
// variant) decorrelates a thundering herd of retriers better than
// equal-jitter at the same expected delay. The zero value disables
// delays entirely — every retry is immediate.
type Backoff struct {
	// Base is the attempt-0 ceiling; 0 disables backoff.
	Base time.Duration
	// Max caps the exponential growth (0 with Base set = 30s).
	Max time.Duration
	// Rand overrides the uniform source (tests pin it; nil = a private
	// seeded source, safe for concurrent use).
	Rand func() float64

	mu  sync.Mutex
	rng *rand.Rand
}

// Delay returns the sleep before retry attempt (0-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	if b == nil || b.Base <= 0 {
		return 0
	}
	max := b.Max
	if max <= 0 {
		max = 30 * time.Second
	}
	ceil := b.Base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	return time.Duration(b.random() * float64(ceil))
}

func (b *Backoff) random() float64 {
	if b.Rand != nil {
		return b.Rand()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return b.rng.Float64()
}
