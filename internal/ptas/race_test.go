//go:build race

package ptas

func init() { raceEnabled = true }
