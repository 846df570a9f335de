//go:build race

package sccl_test

// raceEnabled reports a -race build. The race runtime drops a random
// quarter of sync.Pool puts, so a path that formats through fmt's
// printer pool allocates a varying extra figure per call; allocation
// counts are asserted only when it is false.
const raceEnabled = true
