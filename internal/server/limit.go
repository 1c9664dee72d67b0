package server

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// limiterPrune is the bucket count beyond which idle buckets are pruned.
const limiterPrune = 4096

// Limiter is a per-client token-bucket rate limiter for job submissions.
// Each client (X-ATR-Client header, else the remote IP) gets a bucket
// refilled at rate tokens/sec up to burst; a submission costs one token.
// When a bucket is dry the limiter reports how long until the next token,
// which the handler surfaces as Retry-After on a 429.
type Limiter struct {
	rate  float64 // tokens per second; <= 0 disables limiting
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter creates a limiter refilling rate tokens/sec up to burst per
// client. rate <= 0 disables limiting.
func NewLimiter(rate float64, burst int) *Limiter {
	if burst < 1 {
		burst = 1
	}
	return &Limiter{rate: rate, burst: float64(burst), buckets: make(map[string]*bucket)}
}

// ClientKey identifies the caller for rate-limiting and quota purposes:
// the X-ATR-Client header when present, else the remote IP.
func ClientKey(r *http.Request) string {
	if c := r.Header.Get("X-ATR-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Allow consumes one token from key's bucket. When refused it returns the
// wait until a token is available, rounded up to whole seconds for the
// Retry-After header.
func (l *Limiter) Allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[key]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
		l.pruneLocked(now)
	}
	b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	ceil := wait.Truncate(time.Second)
	if ceil < wait {
		ceil += time.Second
	}
	if ceil <= 0 {
		ceil = time.Second
	}
	return false, ceil
}

// Clients reports how many token buckets the limiter currently tracks.
// It is a monitoring read (the atr_rate_clients gauge), not a
// synchronization point.
func (l *Limiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// pruneLocked drops buckets that have been idle long enough to be full
// again (they carry no information), bounding the map against client
// churn. It scans only when an insertion brings the map to a multiple of
// limiterPrune, so the scan costs O(1) per new client amortized. Caller
// holds l.mu.
func (l *Limiter) pruneLocked(now time.Time) {
	if len(l.buckets)%limiterPrune != 0 {
		return
	}
	for k, b := range l.buckets {
		if now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}
