//go:build race

package sim

// raceEnabled: see race_off_test.go.
const raceEnabled = true
