package main

import "testing"

// TestCacheFlagDefaultsToServerDefault: with no -cache the daemon must hand
// the server CacheSize 0, the value its own default (as many entries as it
// retains jobs) applies to; 256 used to be passed through and the daemon
// forgot results its retained jobs still held.
func TestCacheFlagDefaultsToServerDefault(t *testing.T) {
	_, opts := parseFlags(nil)
	if opts.CacheSize != 0 || opts.RetainJobs != 512 {
		t.Fatalf("default options %+v, want CacheSize 0 beside RetainJobs 512", opts)
	}
	addr, opts := parseFlags([]string{"-cache", "64", "-addr", ":0"})
	if opts.CacheSize != 64 || addr != ":0" {
		t.Fatalf("-cache 64 -addr :0 gave %+v on %q", opts, addr)
	}
}
