//go:build race

package fptree

func init() { raceEnabled = true }
