package main

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"time"
)

// The machine this benchmark runs on changes speed under it: a shared
// VM whose neighbours take cache and memory bandwidth runs the same
// code 25–30 % slower for minutes at a time, with no steal to show for
// it. Two runs a few minutes apart then differ by more than any change
// the benchmark is meant to resolve. So every timing is reported at a
// reference machine speed: right after each round (and each set-up) a
// fixed kernel is timed, and the round's times are scaled by
// calibRefMs / that time.
//
// The kernel is standard-library inflate over data generated here. It
// shares no code with the repository, so speeding squirreld up cannot
// speed the yardstick up with it.

// calibRefMs defines the reference speed: a machine on which the kernel
// takes this long reports its times unscaled. It is this box's typical
// figure, so scaled and raw numbers agree here on a typical minute.
const calibRefMs = 5.0

// calibBytes is the kernel's inflated size: a few milliseconds of work.
const calibBytes = 1 << 20

// calibrator times the reference kernel.
type calibrator struct {
	deflated []byte
	r        io.ReadCloser
}

func newCalibrator() *calibrator {
	// Text-like data: words drawn from a small vocabulary, so that
	// inflate spends its time as it does on real blocks, in matches and
	// literals both.
	rnd := rand.New(rand.NewSource(1))
	vocab := make([][]byte, 512)
	for i := range vocab {
		word := make([]byte, 3+rnd.Intn(9))
		for j := range word {
			word[j] = byte('a' + rnd.Intn(26))
		}
		vocab[i] = word
	}
	var plain bytes.Buffer
	for plain.Len() < calibBytes {
		plain.Write(vocab[rnd.Intn(len(vocab))])
		plain.WriteByte(' ')
	}
	var deflated bytes.Buffer
	zw, err := flate.NewWriter(&deflated, 6)
	if err != nil {
		panic(err) // level 6 is valid
	}
	_, _ = zw.Write(plain.Bytes()[:calibBytes])
	_ = zw.Close()
	c := &calibrator{deflated: deflated.Bytes()}
	c.r = flate.NewReader(bytes.NewReader(c.deflated))
	return c
}

// calibReps is how often the kernel runs per calibration; the fastest
// counts, as an interruption can only add time.
const calibReps = 3

// scale times the kernel and returns the factor that brings a time
// measured just now to the reference speed.
func (c *calibrator) scale() float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < calibReps; i++ {
		start := time.Now()
		_ = c.r.(flate.Resetter).Reset(bytes.NewReader(c.deflated), nil)
		n, err := io.Copy(io.Discard, c.r)
		if err != nil || n != calibBytes {
			panic("calibration kernel: inflate of its own data failed")
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return calibRefMs / (float64(best) / float64(time.Millisecond))
}
