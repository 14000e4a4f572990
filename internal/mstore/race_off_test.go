//go:build !race

package mstore

const raceEnabled = false
