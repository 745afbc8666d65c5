//go:build !linux

package main

const keepAwakeArg = "keep-awake"

// startKeepAwake does nothing off Linux (see keepawake_linux.go).
func startKeepAwake() (stop func()) { return func() {} }

func keepAwakeMain(string) {}
