package block

import (
	"errors"
	"io"
)

// Chunk is one fixed-size unit of a stream: its raw payload, its index in
// the stream, and whether it is a hole (all zero). The final chunk of a
// stream may be shorter than the block size; ZFS likewise stores a short
// tail record.
type Chunk struct {
	Index int64  // 0-based position: byte offset = Index * blockSize
	Data  []byte // raw payload; nil for holes when the source reports them
	Zero  bool   // true if the payload is entirely zero
}

// Chunker splits an io.Reader into fixed-size chunks, detecting zero
// blocks. It reuses an internal buffer, so the Data slice handed to the
// callback is only valid during the call; layers that retain payloads must
// copy (the dedup path hashes and compresses in place, so it never needs
// to).
type Chunker struct {
	r    io.Reader
	size Size
	buf  []byte
	idx  int64
}

// ErrBadSize is returned for non-power-of-two or non-positive block sizes.
var ErrBadSize = errors.New("block: size must be a positive power of two")

// NewChunker returns a chunker over r with the given block size.
func NewChunker(r io.Reader, size Size) (*Chunker, error) {
	if !size.Valid() {
		return nil, ErrBadSize
	}
	return &Chunker{r: r, size: size, buf: make([]byte, size)}, nil
}

// Reset points the chunker at a new stream, keeping its block buffer, so
// a writer that chunks many streams in turn allocates the buffer once.
func (c *Chunker) Reset(r io.Reader) {
	c.r, c.idx = r, 0
}

// Next returns the next chunk, or io.EOF when the stream is exhausted.
func (c *Chunker) Next() (Chunk, error) {
	n, err := io.ReadFull(c.r, c.buf)
	if n == 0 {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Chunk{}, io.EOF
		}
		return Chunk{}, err
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return Chunk{}, err
	}
	data := c.buf[:n]
	ch := Chunk{Index: c.idx, Data: data, Zero: IsZero(data)}
	c.idx++
	return ch, nil
}

// ForEach drives the chunker to completion, invoking fn for every chunk.
// It stops early and returns fn's error if fn fails.
func (c *Chunker) ForEach(fn func(Chunk) error) error {
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ch); err != nil {
			return err
		}
	}
}

// CountBlocks returns how many blocks of the given size a stream of length
// streamLen occupies (the last block may be partial).
func CountBlocks(streamLen int64, size Size) int64 {
	if streamLen <= 0 {
		return 0
	}
	return (streamLen + int64(size) - 1) / int64(size)
}
