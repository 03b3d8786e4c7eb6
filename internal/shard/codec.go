package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/corleone-em/corleone/internal/record"
)

// Binary pair codec: the compact wire format for probe results.
//
// A probe's survivor list is (a, b)-ascending by construction, so
// consecutive pairs differ by tiny deltas — usually dA ∈ {0, 1} and a
// small dB. The codec exploits that: a uvarint pair count followed by one
// signed-varint delta record per pair. Typical survivors encode in 2–4
// bytes against ~20 bytes of JSON ("{"a":123,"b":456}," plus framing), a
// 5–10x wire reduction before HTTP round trips are even counted.
//
// Layout (all varints are encoding/binary zigzag signed varints except the
// leading count, which is unsigned):
//
//	uvarint  count
//	repeat count times:
//	  varint dA = a − prevA          (prevA starts at 0)
//	  if dA != 0: varint b           (absolute; the A-row changed)
//	  else:       varint dB = b − prevB (prevB starts at 0, resets on new A)
//
// Signed deltas make the codec total: any []record.Pair — sorted or not —
// round-trips exactly, which is what lets the fuzz target feed it arbitrary
// inputs. Sorted inputs merely encode smallest.
//
// It is the only representation of a probe result on the wire: the worker
// labels every probe response PairStreamContentType and the executor
// rejects anything else.

const (
	// PairStreamContentType is the media type of a probe response: one
	// uvarint length-prefixed binary pair block per task, in task order,
	// streamed as each probe completes.
	PairStreamContentType = "application/x-corleone-pair-stream"
	// JSONContentType is the media type of every request body (Task array,
	// JobSpec) and of the /shard/load and /metrics responses.
	JSONContentType = "application/json"
)

// ErrCorruptPairs reports a binary pair block that cannot be decoded:
// truncated varints, trailing garbage, a count that cannot fit the buffer,
// or a value outside int32 range.
var ErrCorruptPairs = errors.New("shard: corrupt binary pair block")

// AppendPairs appends the binary encoding of pairs to dst and returns the
// extended slice. The encoding is canonical: equal pair lists always
// produce identical bytes.
func AppendPairs(dst []byte, pairs []record.Pair) []byte {
	var tmp [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(pairs)))
	dst = append(dst, tmp[:n]...)
	prevA, prevB := int64(0), int64(0)
	for _, p := range pairs {
		a, b := int64(p.A), int64(p.B)
		dA := a - prevA
		n = binary.PutVarint(tmp[:], dA)
		if dA != 0 {
			n += binary.PutVarint(tmp[n:], b)
		} else {
			n += binary.PutVarint(tmp[n:], b-prevB)
		}
		dst = append(dst, tmp[:n]...)
		prevA, prevB = a, b
	}
	return dst
}

// DecodePairs decodes a binary pair block into dst (cleared first),
// returning ErrCorruptPairs on any malformed input. The whole buffer must
// be consumed: trailing bytes are corruption, not padding.
func DecodePairs(data []byte, dst []record.Pair) ([]record.Pair, error) {
	dst = dst[:0]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return dst, ErrCorruptPairs
	}
	data = data[n:]
	// Every pair costs at least two bytes, so a count past len(data)/2 is
	// corrupt; checking before allocating keeps fuzzed inputs from forcing
	// huge buffers.
	if count > uint64(len(data))/2 {
		return dst, ErrCorruptPairs
	}
	if c := int(count); cap(dst) < c {
		dst = make([]record.Pair, 0, c)
	}
	prevA, prevB := int64(0), int64(0)
	for i := uint64(0); i < count; i++ {
		dA, n := binary.Varint(data)
		if n <= 0 {
			return dst[:0], ErrCorruptPairs
		}
		data = data[n:]
		v, n := binary.Varint(data)
		if n <= 0 {
			return dst[:0], ErrCorruptPairs
		}
		data = data[n:]
		a := prevA + dA
		b := v
		if dA == 0 {
			b = prevB + v
		}
		if a < -1<<31 || a > 1<<31-1 || b < -1<<31 || b > 1<<31-1 {
			return dst[:0], ErrCorruptPairs
		}
		dst = append(dst, record.Pair{A: int32(a), B: int32(b)})
		prevA, prevB = a, b
	}
	if len(data) != 0 {
		return dst[:0], ErrCorruptPairs
	}
	return dst, nil
}

// maxFramePayload bounds one streamed frame's payload. A frame carries one
// task's survivors — at most TaskBlockRows × |shard| pairs — so anything
// near this limit is a corrupt or hostile length prefix, not data.
const maxFramePayload = 64 << 20

// WriteFrame writes one length-prefixed frame: uvarint payload length,
// then the payload. It is the unit of the batched probe response stream —
// flushed per task so the client can consume results (and survive a
// mid-stream worker kill) without waiting for the batch to finish.
func WriteFrame(w io.Writer, payload []byte) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	if _, err := w.Write(tmp[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into buf (reused when large
// enough), returning io.EOF cleanly at a frame boundary and an error for
// a torn prefix or truncated payload — the mid-stream-kill signal the
// coordinator turns into retries of the undelivered tail.
func ReadFrame(r io.ByteReader, buf []byte) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err // io.EOF at a boundary is the clean end of stream
	}
	if size > maxFramePayload {
		return nil, fmt.Errorf("shard: frame of %d bytes exceeds the %d limit", size, maxFramePayload)
	}
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	rr, ok := r.(io.Reader)
	if !ok {
		for i := range buf {
			c, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("shard: frame truncated at %d of %d bytes: %w", i, size, err)
			}
			buf[i] = c
		}
		return buf, nil
	}
	if _, err := io.ReadFull(rr, buf); err != nil {
		return nil, fmt.Errorf("shard: frame truncated (want %d bytes): %w", size, err)
	}
	return buf, nil
}
