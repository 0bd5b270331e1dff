package main

import (
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"64m", 64 << 20, true},
		{"1G", 1 << 30, true},
		{"k", 0, false},
		{"-1", 0, false},
		{"12x", 0, false},
		// n*mult would wrap int64 to a negative size, which the caller
		// reads as "rotation off".
		{"9999999999g", 0, false},
		{"8589934591g", (1<<33 - 1) << 30, true}, // largest whole-g size that fits
		{"8589934592g", 0, false},
	} {
		got, err := parseSize(tc.in)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "invalid size") {
			t.Errorf("parseSize(%q) = %d, %v; want an invalid size error", tc.in, got, err)
		}
	}
}
