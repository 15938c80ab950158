package main

import "testing"

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.0, 7.75}, 2.375, 8.375},
		{[]float64{2, 8}, 0.5, 9.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
