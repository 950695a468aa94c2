//go:build race

package zone

const raceEnabled = true
