package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"github.com/corleone-em/corleone/internal/record"
)

// codecCases are the unit-level pair lists: the shapes probes actually
// emit ((a, b)-ascending with dense runs) plus the adversarial ones the
// codec's totality contract covers (unsorted, duplicates, extremes).
func codecCases() [][]record.Pair {
	return [][]record.Pair{
		nil,
		{},
		{{A: 0, B: 0}},
		{{A: 3, B: 7}},
		{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 9}, {A: 1, B: 0}, {A: 5, B: 3}},
		{{A: 10, B: 20}, {A: 10, B: 20}, {A: 10, B: 20}},          // duplicates
		{{A: 9, B: 1}, {A: 3, B: 99}, {A: 3, B: 2}, {A: 0, B: 0}}, // unsorted
		{{A: -5, B: -7}, {A: -5, B: 4}, {A: 2, B: -1}},            // negatives
		{{A: math.MinInt32, B: math.MaxInt32}, {A: math.MaxInt32, B: math.MinInt32}},
	}
}

func TestPairCodecRoundTrip(t *testing.T) {
	for i, pairs := range codecCases() {
		enc := AppendPairs(nil, pairs)
		dec, err := DecodePairs(enc, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(dec) != len(pairs) {
			t.Fatalf("case %d: decoded %d pairs, want %d", i, len(dec), len(pairs))
		}
		for j := range pairs {
			if dec[j] != pairs[j] {
				t.Fatalf("case %d: pair %d = %v, want %v", i, j, dec[j], pairs[j])
			}
		}
		// Canonical: the same list always encodes to the same bytes.
		if again := AppendPairs(nil, dec); !bytes.Equal(again, enc) {
			t.Fatalf("case %d: re-encode diverged (%x vs %x)", i, again, enc)
		}
	}
}

// TestPairCodecCompression pins the point of the codec: a typical sorted
// survivor run must encode well under half the size of its plain JSON
// rendering (assert a conservative 4x so unit tests stay robust).
func TestPairCodecCompression(t *testing.T) {
	var pairs []record.Pair
	for a := int32(100); a < 150; a++ {
		for b := a * 3; b < a*3+6; b++ {
			pairs = append(pairs, record.Pair{A: a, B: b})
		}
	}
	bin := AppendPairs(nil, pairs)
	jso, err := json.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(jso)) / float64(len(bin)); ratio < 4 {
		t.Errorf("binary %dB vs JSON %dB — only %.1fx smaller, want >= 4x", len(bin), len(jso), ratio)
	}
}

func TestDecodePairsCorrupt(t *testing.T) {
	good := AppendPairs(nil, []record.Pair{{A: 1, B: 2}, {A: 1, B: 5}})
	cases := map[string][]byte{
		"empty":           {},
		"bare count":      {5},
		"truncated pair":  good[:len(good)-1],
		"trailing bytes":  append(append([]byte{}, good...), 0x00),
		"huge count":      {0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01},
		"overlong varint": {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
	for name, data := range cases {
		if _, err := DecodePairs(data, nil); !errors.Is(err, ErrCorruptPairs) {
			t.Errorf("%s: err = %v, want ErrCorruptPairs", name, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{7}, 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, want %q", i, got, want)
		}
		scratch = got[:0]
	}
	if _, err := ReadFrame(r, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// A torn payload (length prefix promises more than arrives) must error,
	// not silently truncate.
	torn := bytes.NewReader([]byte{5, 'a', 'b'})
	if _, err := ReadFrame(torn, nil); err == nil {
		t.Fatal("torn frame read succeeded")
	}

	// A hostile length prefix is rejected before allocation.
	huge := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadFrame(huge, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// pairsFromBytes derives a deterministic pair list from fuzz bytes: every
// 3 bytes become one pair with small-ish deltas, so sorted-run and jumpy
// shapes both occur.
func pairsFromBytes(data []byte) []record.Pair {
	var pairs []record.Pair
	a, b := int32(0), int32(0)
	for i := 0; i+2 < len(data); i += 3 {
		a += int32(int8(data[i]))
		b += int32(int8(data[i+1]))<<8 | int32(data[i+2])
		pairs = append(pairs, record.Pair{A: a, B: b})
	}
	return pairs
}

// FuzzPairCodec is the differential fuzz target: (1) DecodePairs must be
// total over arbitrary bytes — no panics, no allocation blowups — and any
// successfully decoded list must re-encode canonically and round-trip;
// (2) a pair list derived from the input — sorted or not — must round-trip
// through the codec exactly.
func FuzzPairCodec(f *testing.F) {
	for _, pairs := range codecCases() {
		f.Add(AppendPairs(nil, pairs))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Axis 1: arbitrary bytes through the decoder.
		if dec, err := DecodePairs(data, nil); err == nil {
			enc := AppendPairs(nil, dec)
			dec2, err := DecodePairs(enc, nil)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v", err)
			}
			if len(dec2) != len(dec) {
				t.Fatalf("round trip changed length %d -> %d", len(dec), len(dec2))
			}
			for i := range dec {
				if dec[i] != dec2[i] {
					t.Fatalf("round trip changed pair %d: %v -> %v", i, dec[i], dec2[i])
				}
			}
			if again := AppendPairs(nil, dec2); !bytes.Equal(again, enc) {
				t.Fatalf("encoding not canonical: %x vs %x", again, enc)
			}
		}

		// Axis 2: arbitrary pair lists through encode → decode.
		pairs := pairsFromBytes(data)
		bin, err := DecodePairs(AppendPairs(nil, pairs), nil)
		if err != nil {
			t.Fatalf("round trip of valid pairs failed: %v", err)
		}
		if len(bin) != len(pairs) {
			t.Fatalf("round trip changed length %d -> %d", len(pairs), len(bin))
		}
		for i := range pairs {
			if bin[i] != pairs[i] {
				t.Fatalf("pair %d: decoded %v, input %v", i, bin[i], pairs[i])
			}
		}
	})
}
