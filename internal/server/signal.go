package server

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ShutdownOnSignal installs a SIGINT/SIGTERM handler that calls shutdown
// with a context bounded by timeout and delivers its error (nil on a clean
// drain) on the returned channel. A second signal during the drain aborts
// immediately with an error instead of waiting out the timeout.
//
// cmd/earthd blocks on the returned channel in main (drain the job queue,
// then stop the HTTP server), so a signal produces an orderly drain rather
// than the runtime's default hard kill.
func ShutdownOnSignal(timeout time.Duration, shutdown func(context.Context) error) <-chan error {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() {
		sig := <-sigs
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- shutdown(ctx) }()
		select {
		case err := <-done:
			errc <- err
		case sig2 := <-sigs:
			errc <- fmt.Errorf("%v during %v shutdown: aborting", sig2, sig)
		}
	}()
	return errc
}
