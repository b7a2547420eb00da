//go:build race

package sql

func init() { raceDetector = true }
