package main

import (
	"reflect"
	"testing"
)

func TestParseFigs(t *testing.T) {
	cases := []struct {
		in   string
		want []string // nil: rejected
	}{
		{"6", []string{"6"}},
		{"all", []string{"all"}},
		{"table4", []string{"table4"}},
		{"1, 2,headline", []string{"1", "2", "headline"}},
		{"6,6", []string{"6"}},
		{"17", nil},
		{"table 4", nil},
		{"", nil},
		{"6,", nil},
		{"6,fig7", nil},
	}
	for _, tc := range cases {
		got, err := parseFigs(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseFigs(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.in, err)
			continue
		}
		want := map[string]bool{}
		for _, n := range tc.want {
			want[n] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseFigs(%q) = %v, want %v", tc.in, got, want)
		}
	}
}
