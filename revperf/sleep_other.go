//go:build !linux

package main

import "time"

// pinPrecise has nothing to tune off Linux.
func pinPrecise() func() { return func() {} }

// sleepPrecise falls back to the Go timer off Linux.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
