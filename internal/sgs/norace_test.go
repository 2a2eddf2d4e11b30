//go:build !race

package sgs

const raceEnabled = false
