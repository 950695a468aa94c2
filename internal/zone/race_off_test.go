//go:build !race

package zone

const raceEnabled = false
