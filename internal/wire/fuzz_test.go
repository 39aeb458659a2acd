package wire

import (
	"bytes"
	"testing"
)

// Fuzz targets (run with `go test -fuzz=FuzzDecodeControl ./internal/wire`;
// `go test` executes the seed corpus).

func FuzzDecodeControl(f *testing.F) {
	// Seeds: a valid message, a credit-bearing message, junk, and
	// boundary sizes.
	valid, _ := (&Control{Type: MsgBlockComplete, Session: 1, Seq: 2, Addr: 3, RKey: 4, Length: 5}).Encode(nil)
	f.Add(valid)
	withCredits, _ := (&Control{Type: MsgMRInfoResponse, Credits: []Credit{{Addr: 1, RKey: 2, Len: 3}}}).Encode(nil)
	f.Add(withCredits)
	// Max-size multi-credit grant: the largest message a coalesced
	// flush can produce (MaxCreditsPerMsg credits).
	maxed := &Control{Type: MsgMRInfoResponse}
	for i := 0; i < MaxCreditsPerMsg; i++ {
		maxed.Credits = append(maxed.Credits, Credit{Addr: uint64(i) << 12, RKey: uint32(i), Len: 4096})
	}
	maxSeed, _ := maxed.Encode(nil)
	f.Add(maxSeed)
	// Oversize forged count: valid header bytes but a credit count one
	// past the ceiling, with enough trailing bytes to look plausible.
	forged := append([]byte(nil), maxSeed...)
	forged[2], forged[3] = byte((MaxCreditsPerMsg+1)>>8), byte(MaxCreditsPerMsg+1)
	f.Add(append(forged, make([]byte, creditSize)...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, ControlHeaderSize))
	f.Add(bytes.Repeat([]byte{0x00}, ControlHeaderSize+16))

	// reused carries the max-size grant into every input, so a Decode
	// that leaves any field or credit of the previous message behind
	// diverges from the fresh decode.
	var backing [MaxCreditsPerMsg]Credit
	reused := Control{Credits: backing[:0]}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := reused.Decode(maxSeed); err != nil {
			t.Fatal(err)
		}
		c, err := DecodeControl(data)
		if rerr := reused.Decode(data); rerr != err {
			t.Fatalf("reused decode returned %v, fresh decode %v", rerr, err)
		}
		if err != nil {
			return
		}
		if !sameControl(&reused, c) {
			t.Fatalf("reused decode diverged from fresh decode:\n%+v\n%+v", reused, c)
		}
		// Whatever decodes must re-encode to something that decodes to
		// the same value (canonicalization round trip).
		out, err := c.Encode(nil)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v (%+v)", err, c)
		}
		c2, err := DecodeControl(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if c.Type != c2.Type || c.Session != c2.Session || c.Seq != c2.Seq ||
			c.Addr != c2.Addr || c.RKey != c2.RKey || c.Length != c2.Length ||
			c.AssocData != c2.AssocData || len(c.Credits) != len(c2.Credits) {
			t.Fatalf("canonical round trip diverged:\n%+v\n%+v", c, c2)
		}
	})
}

func FuzzDecodeBlockHeader(f *testing.F) {
	buf := make([]byte, BlockHeaderSize)
	EncodeBlockHeader(buf, BlockHeader{Session: 1, Seq: 2, Offset: 3, PayloadLen: 4, Last: true})
	f.Add(buf)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, BlockHeaderSize-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeBlockHeader(data)
		if err != nil {
			return
		}
		out := make([]byte, BlockHeaderSize)
		if err := EncodeBlockHeader(out, h); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		h2, err := DecodeBlockHeader(out)
		if err != nil || h2 != h {
			t.Fatalf("canonical round trip diverged: %+v vs %+v (%v)", h, h2, err)
		}
	})
}
