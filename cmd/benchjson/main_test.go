package main

import (
	"slices"
	"testing"
)

func TestParseMaxAllocs(t *testing.T) {
	got, err := parseMaxAllocs("HandleUDPECS=3, ViewLookup=0,")
	if err != nil || len(got) != 2 || got["HandleUDPECS"] != 3 || got["ViewLookup"] != 0 {
		t.Fatalf("parseMaxAllocs = %v, %v", got, err)
	}
	for _, bad := range []string{"HandleUDPECS", "=3", "HandleUDPECS=x", "HandleUDPECS=-1"} {
		if _, err := parseMaxAllocs(bad); err == nil {
			t.Errorf("parseMaxAllocs(%q) accepted", bad)
		}
	}
}

// TestCheckMaxAllocs: a row at its ceiling passes, one over it fails, and
// a ceiling naming a row the run lacks fails rather than disarming.
func TestCheckMaxAllocs(t *testing.T) {
	results := []Result{{Name: "HandleUDPECS", AllocsPerOp: 3, BytesPerOp: 80}, {Name: "HandleUDP"}}
	if bad := checkMaxAllocs(results, map[string]int64{"HandleUDPECS": 3}); len(bad) != 0 {
		t.Errorf("at the ceiling: %v", bad)
	}
	bad := checkMaxAllocs(results, map[string]int64{"HandleUDPECS": 2, "Gone": 0})
	want := []string{
		"-assert-max-allocs names Gone, which the run does not report",
		"HandleUDPECS allocates 3 allocs/op (80 B/op), ceiling 2",
	}
	if !slices.Equal(bad, want) {
		t.Errorf("checkMaxAllocs = %q, want %q", bad, want)
	}
}
