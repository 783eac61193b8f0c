package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake a sleeping
// goroutine up to a millisecond late on Linux (the poller waits in whole
// milliseconds), which an open-loop generator would add to every latency
// it measures; a nanosleep system call wakes within about 0.1 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}
