//go:build race

package cluster

// raceEnabled reports whether the race detector is active. Allocation
// pins skip under it: instrumentation changes what escapes.
const raceEnabled = true
