package main

import (
	"testing"
	"time"
)

// TestRunsToCompletion runs the example's main end to end. A failure
// inside it (log.Fatal) exits the test binary non-zero; a hang fails the
// test at the deadline.
func TestRunsToCompletion(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		main()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("main did not return within a minute")
	}
}
