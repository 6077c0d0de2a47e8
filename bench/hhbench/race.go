//go:build race

package main

// raceSlowdown stretches the -short paced period under the race detector,
// which slows the device several times over; the open loop's lateness
// check assumes the program runs at full speed.
const raceSlowdown = 10
