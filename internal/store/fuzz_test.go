package store

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSnapshotLoader holds the CSNAP1 loader to the BNET1 loader's
// contract under arbitrary bytes: never panic, never allocate
// proportionally to a hostile length field, and stay involutive — any
// input it accepts must re-encode to bytes it accepts again, decoding to
// the same state.
func FuzzSnapshotLoader(f *testing.F) {
	valid, err := Encode(testState(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	// A structurally valid frame whose payload declares a hostile count:
	// a GRDB section claiming 2^60 graphs in a few bytes. The allocation
	// cap must reject it without attempting the allocation.
	hostile := []byte(Magic)
	hostile = binary.AppendUvarint(hostile, 1)
	hostile = appendSection(hostile, tagGrdb, binary.AppendUvarint(nil, 1<<60))
	f.Add(hostile)
	// Flip one byte in every position of a small valid snapshot.
	small, err := Encode(&State{Dataset: "d"})
	if err != nil {
		f.Fatal(err)
	}
	for i := range small {
		mut := append([]byte(nil), small...)
		mut[i] ^= 0xA5
		f.Add(mut)
	}
	// The same snapshot as earlier versions wrote it, with an empty GIDX
	// section before MNTR, and one flip of each of its bytes: the loader
	// skips the section when it verifies and rejects the file when not.
	legacy := withIndexSection(f, small)
	f.Add(legacy)
	for i := range legacy {
		mut := append([]byte(nil), legacy...)
		mut[i] ^= 0xA5
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data) // must not panic on any input
		if err != nil {
			return
		}
		re, err := Encode(st)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded bytes rejected: %v", err)
		}
		re2, err := Encode(st2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("decode→encode not stable on accepted input")
		}
	})
}

// withIndexSection re-frames a snapshot with an empty GIDX section before
// its final (MNTR) section, the layout earlier versions wrote.
func withIndexSection(tb testing.TB, snap []byte) []byte {
	tb.Helper()
	secs, err := scanSections(snap)
	if err != nil {
		tb.Fatal(err)
	}
	out := binary.AppendUvarint([]byte(Magic), uint64(len(secs)+1))
	for i, sec := range secs {
		if i == len(secs)-1 {
			out = appendSection(out, "GIDX", nil)
		}
		out = appendSection(out, sec.tag, sec.payload(snap))
	}
	return out
}
