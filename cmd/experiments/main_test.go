package main

import (
	"slices"
	"testing"

	"repro/internal/experiments"
)

// TestChooseNamesUnknownIDs pins -only's selection: listed IDs match
// case-insensitively and run in suite order, and every listed ID that
// matches no experiment is reported, so a typo cannot pass silently.
func TestChooseNamesUnknownIDs(t *testing.T) {
	all := experiments.All()
	ids := func(exps []experiments.Experiment) []string {
		var out []string
		for _, e := range exps {
			out = append(out, e.ID)
		}
		return out
	}
	for _, c := range []struct {
		only            string
		chosen, unknown []string
	}{
		{"", ids(all), nil},                         // empty runs the whole suite
		{"e9, E1", []string{"E1", "E9"}, nil},       // suite order, any case
		{"E8,E99", []string{"E8"}, []string{"E99"}}, // an unknown beside a match
		{"E99,x", nil, []string{"E99", "x"}},        // nothing matches
	} {
		chosen, unknown := choose(all, c.only)
		if got := ids(chosen); !slices.Equal(got, c.chosen) || !slices.Equal(unknown, c.unknown) {
			t.Errorf("choose(%q) = %v, unknown %v; want %v, unknown %v",
				c.only, got, unknown, c.chosen, c.unknown)
		}
	}
}
