package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// pinPrecise locks the calling goroutine to its thread and sets the
// thread's timer slack to 1ns, so sleepPrecise wakes within microseconds
// instead of the default 50µs slack. The returned func unlocks.
func pinPrecise() func() {
	runtime.LockOSThread()
	// Best effort: without it the generator is only later, and that
	// lateness is measured and reported.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// sleepPrecise waits d with the kernel's high-resolution timer. The Go
// timer behind time.Sleep wakes an idle process only at millisecond
// granularity, which would make the open-loop generator late by up to a
// millisecond on every request; a raw nanosleep blocks only this
// goroutine's thread, and the runtime hands its processor to other
// goroutines meanwhile.
func sleepPrecise(d time.Duration) {
	if d >= 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
