//go:build race

package entangle

func init() { raceDetector = true }
