// Command simd is the persistent experiment service: a long-running HTTP
// daemon that accepts sweep specs (the canonical schema behind the batch
// CLIs), runs their points on a bounded worker pool, and content-addresses
// every result so repeated or overlapping sweeps are served from an exact
// on-disk cache instead of re-simulated. Determinism makes the cache sound:
// the bytes a warm job returns are identical to the run that filled it.
//
//	simd -addr :8080 -state ./simd-state -j 0 &
//	curl -s -X POST localhost:8080/jobs -d '{"kind":"tile","scale":0.01,"nodes":2}'
//	curl -sN localhost:8080/jobs/<id>/stream        # NDJSON progress
//	curl -s localhost:8080/jobs/<id>/result         # CSV
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drains in-flight points, checkpoints the queue, and exits
// 0; a restarted server resumes interrupted sweeps from the checkpoint,
// fast-forwarding through already-cached points.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"amtlci/internal/expd"
)

// Connection timeouts. Only header reads and idle keep-alives are bounded:
// a ReadTimeout or WriteTimeout would also cut the long-lived NDJSON
// /jobs/{id}/stream responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an OS-assigned port)")
	state := flag.String("state", "simd-state", "state directory (result cache + job checkpoint)")
	j := flag.Int("j", 0, "sweep worker pool size (0 = one per CPU)")
	cacheMax := flag.Int("cache-max", 0, "bound the result cache to this many point entries, LRU-evicted (0 = unbounded)")
	flag.Parse()

	srv, err := expd.NewServer(expd.Options{Dir: *state, Workers: *j, CacheMax: *cacheMax})
	if err != nil {
		log.Fatalf("simd: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// The listen line is the startup handshake: scripts wait for it and
	// parse the port out of it.
	fmt.Printf("simd: listening on %s (state %s)\n", ln.Addr(), *state)

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("simd: %v: draining and checkpointing\n", s)
	case err := <-done:
		log.Fatalf("simd: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	srv.Close() // interrupt the active job, write the final checkpoint
	fmt.Println("simd: checkpoint written, bye")
}
