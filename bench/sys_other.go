//go:build !linux

package main

import "runtime"

// Process accounting and the segmentation probe are Linux-only; elsewhere
// the proc.* rows read zero.

func cpuSeconds() float64 { return 0 }

func peakRSSMB() float64 { return 0 }

func kernelRelease() string { return runtime.GOOS }

func gsoSupported() bool { return false }
