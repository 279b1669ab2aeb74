package core

import (
	"fmt"
	"testing"
)

// FuzzExhaustive decodes a design of at most nine blocks and a budget
// with decodePareCase, whose flag bit here asks for RequireConvex, and
// runs both exhaustive engines on it directly: the family engine and
// the permanent-demand one. Each must return the seed reference's
// partitions and uncovered list. The block count is capped because the
// seed reference explodes past it.
func FuzzExhaustive(f *testing.F) {
	f.Add([]byte{0x04, 3, 8, 5, 0, 1, 2, 0, 3, 4, 1, 1, 6, 7, 0, 5, 9, 1, 2, 8, 3, 4, 1, 0, 7, 2})
	f.Add([]byte{0x82, 1, 6, 2, 9, 9, 9, 5, 6, 6, 4, 4, 1, 1, 5, 3, 7, 7, 2, 2, 5, 5, 0, 1, 1, 8})
	f.Add([]byte{0x10, 2, 7, 0xff, 0xfe, 0x13, 0x27, 0x31, 0x45, 0x52, 0x68, 0x7a, 0x81, 0x99, 0xa3, 0xb7})
	f.Add([]byte{0x88, 0, 5, 3, 3, 0, 3, 1, 4, 0, 2, 9, 3, 6, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2 {
			data = append([]byte(nil), data...)
			data[2] %= 9
		}
		g, c, convex := decodePareCase(data)
		c.RequireConvex = convex
		want, err := seedExhaustive(g, c, ExhaustiveOptions{})
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
		for _, family := range []bool{true, false} {
			got, err := exhaustive(g, c, ExhaustiveOptions{}, family)
			if err != nil {
				t.Fatalf("family engine %v: %v", family, err)
			}
			assertSameResult(t, g, c, fmt.Sprintf("family engine %v, budget %+v", family, c), got, want)
		}
	})
}
