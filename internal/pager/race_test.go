//go:build race

package pager

func init() { raceEnabled = true }
