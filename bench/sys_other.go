//go:build !linux

package main

import "os/exec"

// Portable fallbacks so the package builds everywhere; the numbers the
// benchmark commits to are Linux ones.

func processCPU() int64 { return 0 }

func peakRSSKB() int64 { return 0 }

type cpuMask struct{}

func splitCPUs() (gen, server cpuMask, ok bool) { return gen, server, false }

func pinProcess(*cpuMask) {}

func startPinned(cmd *exec.Cmd, _, _ *cpuMask) error { return cmd.Start() }
