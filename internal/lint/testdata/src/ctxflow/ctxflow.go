// Package ctxflow exercises the ctxflow analyzer: no bare time.Sleep, no
// context-free HTTP, and no fresh context roots without a reasoned allow.
package ctxflow

import (
	"context"
	"net/http"
	"time"
)

func sleepy() {
	time.Sleep(time.Second) // want "ctxflow: bare time.Sleep blocks with no cancellation"
}

// waity is the sanctioned shape: a timer raced against the context.
func waity(ctx context.Context) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func fetch(c *http.Client) {
	c.Get("http://example.com")      // want "ctxflow: \\(\\*http.Client\\).Get sends a request with no context"
	http.Get("http://example.com")   // want "ctxflow: http.Get sends a request with no context"
	http.NewRequest("GET", "u", nil) // want "ctxflow: http.NewRequest builds a context-free request"
}

// fetchCtx is the sanctioned shape: the context rides in the request.
func fetchCtx(ctx context.Context, c *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.com", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// helper mints a fresh root: flagged wherever it sits, whoever calls it.
func helper() {
	ctx := context.Background() // want "ctxflow: context.Background mints a fresh root context in the serving tier"
	_ = ctx
}

// runner is a detached background loop: a fresh root is right for it, and
// the allow says why.
func runner() {
	ctx := context.TODO() //gpulint:allow ctxflow a background loop outlives every request; its stop channel ends it
	_ = ctx
}

// derived threads its caller's context, so its allow suppresses nothing.
func derived(parent context.Context) {
	ctx, cancel := context.WithCancel(parent) //gpulint:allow ctxflow stale detach note // want "unused //gpulint:allow suppression: no ctxflow diagnostic"
	defer cancel()
	_ = ctx
}

// legacy documents a sanctioned sleep with a reviewed suppression.
func legacy() {
	time.Sleep(time.Millisecond) //gpulint:allow ctxflow startup jitter predates the ctx plumbing
}

// stale suppressions are themselves findings.
func quiet(ctx context.Context) {
	waity(ctx) //gpulint:allow ctxflow nothing to suppress // want "unused //gpulint:allow suppression: no ctxflow diagnostic"
}
