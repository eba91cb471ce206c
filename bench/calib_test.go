package main

import (
	"bytes"
	"math"
	"testing"
)

func TestCalibrator(t *testing.T) {
	a, b := newCalibrator(), newCalibrator()
	if !bytes.Equal(a.deflated, b.deflated) || len(a.deflated) == 0 {
		t.Fatal("the calibration kernel's data is not the same on every run")
	}
	// Compressible, but not trivially: inflate must have real work to do.
	if ratio := float64(calibBytes) / float64(len(a.deflated)); ratio < 2 || ratio > 10 {
		t.Errorf("kernel data deflates %.1f:1, want text-like", ratio)
	}
	for i := 0; i < 3; i++ {
		if s := a.scale(); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("scale = %v", s)
		}
	}
}
