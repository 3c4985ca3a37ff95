// Command idpserved serves what-if capacity-planning queries over
// HTTP. It wraps internal/serve's Server in an http.Server and wires
// graceful shutdown: SIGTERM/SIGINT stops accepting connections, then
// drains the compute pool (in-flight queries finish, new ones shed
// with 503) before exiting.
//
// Usage:
//
//	idpserved -addr :8080 -workers 8 -queue 32 -cache 4096
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "compute pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		cacheN   = flag.Int("cache", 0, "result cache entries (0 = 4096)")
		version  = flag.String("code-version", "", "override detected code version in cache keys")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to drain on shutdown")
	)
	flag.Parse()
	if err := run(*addr, serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheN,
		CodeVersion:  *version,
	}, *drainFor); err != nil {
		fmt.Fprintln(os.Stderr, "idpserved:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, drainFor time.Duration) error {
	s := serve.NewServer(cfg)
	hs := &http.Server{Addr: addr, Handler: s.Handler()}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("idpserved listening on %s (workers=%d queue=%d code=%s)",
			addr, s.Stats().Workers, s.Stats().QueueDepth, s.Stats().CodeVersion)
		errCh <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case got := <-sig:
		log.Printf("received %v, draining (timeout %s)", got, drainFor)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	// Stop accepting new connections first, then drain the compute
	// pool so every admitted query's response is written.
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
