//go:build race

package vet_test

func init() { raceEnabled = true }
