package service

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecodeEntry fuzzes the one trust check that every disk read and
// every peer fetch runs.
func FuzzDecodeEntry(f *testing.F) {
	const version = "test-v1"
	key := fakeKey(9)
	trace := []byte(`{"traceEvents":[]}`)
	valid := encodeEntry(key, version, cacheEntry{result: []byte(`{"fps":60}`), trace: trace})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-3] ^= 0x20
	// Payloads that still hash correctly under a header that overstates
	// the trace length.
	overstated := bytes.Replace(valid, []byte(fmt.Sprintf(`"trace_len":%d`, len(trace))), []byte(fmt.Sprintf(`"trace_len":%d`, len(trace)+1)), 1)
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(flipped)
	f.Add(overstated)
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := decodeEntry(raw, key, version)
		if err != nil {
			return
		}
		payload := append(append([]byte(nil), e.result...), e.trace...)
		if !bytes.HasSuffix(raw, payload) {
			t.Fatal("accepted payload is not the body's trailing bytes")
		}
		if hdr, _, _ := readHeader(bytes.NewReader(raw)); hdr.ResultLen != int64(len(e.result)) || hdr.TraceLen != int64(len(e.trace)) {
			t.Fatalf("header declares %d+%d payload bytes, entry has %d+%d", hdr.ResultLen, hdr.TraceLen, len(e.result), len(e.trace))
		}
		again, err := decodeEntry(encodeEntry(key, version, e), key, version)
		if err != nil || !bytes.Equal(again.result, e.result) || !bytes.Equal(again.trace, e.trace) ||
			(again.trace == nil) != (e.trace == nil) {
			t.Fatalf("re-encoded entry does not decode to itself (err %v)", err)
		}
		if _, err := decodeEntry(raw, fakeKey(10), version); err == nil {
			t.Fatal("entry accepted under another key")
		}
		if _, err := decodeEntry(raw, key, "test-v2"); err == nil {
			t.Fatal("entry accepted under another code version")
		}
		// The first and the last payload byte: the result and the trace
		// checksum each guard one of them when both payloads are set.
		if len(payload) > 0 {
			for _, i := range []int{len(raw) - len(payload), len(raw) - 1} {
				bad := bytes.Clone(raw)
				bad[i] ^= 1
				if _, err := decodeEntry(bad, key, version); err == nil {
					t.Fatalf("entry accepted with payload byte %d flipped", i)
				}
			}
		}
	})
}
