package wire

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestControlRoundTrip(t *testing.T) {
	in := &Control{
		Type:      MsgMRInfoResponse,
		Flags:     FlagAccept,
		Session:   0xDEADBEEF,
		Seq:       42,
		Addr:      0x123456789ABCDEF0,
		RKey:      0xCAFEBABE,
		Length:    1 << 20,
		AssocData: 900 << 30, // 900 GB fits
		Credits: []Credit{
			{Addr: 0x1000, RKey: 1, Len: 4096},
			{Addr: 0x2000, RKey: 2, Len: 8192},
		},
	}
	b, err := in.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != in.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(b), in.EncodedLen())
	}
	out, err := DecodeControl(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestControlNoCredits(t *testing.T) {
	in := &Control{Type: MsgBlockComplete, Session: 7, Seq: 9, Addr: 100, RKey: 5, Length: 64}
	b, _ := in.Encode(nil)
	if len(b) != ControlHeaderSize {
		t.Fatalf("len = %d, want %d", len(b), ControlHeaderSize)
	}
	out, err := DecodeControl(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgBlockComplete || out.Seq != 9 || len(out.Credits) != 0 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestControlTruncated(t *testing.T) {
	in := &Control{Type: MsgMRInfoResponse, Credits: []Credit{{Addr: 1, RKey: 2, Len: 3}}}
	b, _ := in.Encode(nil)
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeControl(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestControlMaxCredits exercises the exact batch ceiling: a grant
// message carrying MaxCreditsPerMsg distinct credits must encode to
// the documented size and round-trip losslessly. This is the largest
// message the credit coalescer is allowed to emit in one flush.
func TestControlMaxCredits(t *testing.T) {
	in := &Control{Type: MsgMRInfoResponse, Session: 3, Seq: 11}
	for i := 0; i < MaxCreditsPerMsg; i++ {
		in.Credits = append(in.Credits, Credit{
			Addr: 0x10000 + uint64(i)*4096,
			RKey: uint32(i + 1),
			Len:  uint32(4096 + i),
		})
	}
	b, err := in.Encode(nil)
	if err != nil {
		t.Fatalf("encode at batch ceiling: %v", err)
	}
	if want := ControlHeaderSize + MaxCreditsPerMsg*creditSize; len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
	out, err := DecodeControl(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("max-size round trip mismatch (got %d credits)", len(out.Credits))
	}
}

// TestControlZeroCreditResponse pins down the zero-credit grant edge:
// an MR_INFO_RESPONSE with no credits is legal on the wire (the sink
// may answer an explicit request with a header-only message when its
// pool is dry) and must not be confused with a malformed count.
func TestControlZeroCreditResponse(t *testing.T) {
	in := &Control{Type: MsgMRInfoResponse, Session: 5, Seq: 1}
	b, err := in.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != ControlHeaderSize {
		t.Fatalf("zero-credit response encoded %d bytes, want header-only %d", len(b), ControlHeaderSize)
	}
	out, err := DecodeControl(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Credits) != 0 || out.Type != MsgMRInfoResponse {
		t.Fatalf("decoded %+v", out)
	}
}

func TestControlTooManyCredits(t *testing.T) {
	in := &Control{Type: MsgMRInfoResponse, Credits: make([]Credit, MaxCreditsPerMsg+1)}
	if _, err := in.Encode(nil); err != ErrBadCount {
		t.Fatalf("encode overflow: %v", err)
	}
	// Forged count on the wire.
	ok := &Control{Type: MsgMRInfoResponse}
	b, _ := ok.Encode(nil)
	b[2], b[3] = 0xFF, 0xFF
	if _, err := DecodeControl(b); err != ErrBadCount {
		t.Fatalf("decode forged count: %v", err)
	}
}

// sameControl compares two decoded messages field by field; a nil and
// an empty credit list are the same message.
func sameControl(a, b *Control) bool {
	return a.Type == b.Type && a.Flags == b.Flags && a.Session == b.Session && a.Seq == b.Seq &&
		a.Addr == b.Addr && a.RKey == b.RKey && a.Length == b.Length && a.AssocData == b.AssocData &&
		slices.Equal(a.Credits, b.Credits)
}

// TestControlDecodeReuse: decoding a 16-credit grant and then a
// 0-credit BLOCK_COMPLETE into one Control leaves nothing of the grant
// behind, and the second decode reuses the first one's credit storage.
func TestControlDecodeReuse(t *testing.T) {
	grant := &Control{Type: MsgMRInfoResponse, Flags: FlagAccept, Session: 3, Seq: 4,
		Addr: 5, RKey: 6, Length: 7, AssocData: 8}
	for i := 0; i < 16; i++ {
		grant.Credits = append(grant.Credits, Credit{Addr: uint64(i) << 12, RKey: uint32(i + 1), Len: 4096})
	}
	complete := &Control{Type: MsgBlockComplete, Session: 9, Seq: 10}
	gb, _ := grant.Encode(nil)
	cb, _ := complete.Encode(nil)

	var c Control
	if err := c.Decode(gb); err != nil {
		t.Fatal(err)
	}
	if !sameControl(&c, grant) {
		t.Fatalf("grant decoded as %+v", c)
	}
	backing := &c.Credits[:1][0]
	if err := c.Decode(cb); err != nil {
		t.Fatal(err)
	}
	if !sameControl(&c, complete) {
		t.Fatalf("BLOCK_COMPLETE after a grant decoded as %+v, want %+v", c, complete)
	}
	if cap(c.Credits) == 0 || &c.Credits[:1][0] != backing {
		t.Fatal("second decode dropped the credit storage")
	}
	// A failed decode leaves the message in hand untouched.
	if err := c.Decode(gb[:ControlHeaderSize+1]); err != ErrShortMessage {
		t.Fatalf("truncated grant: %v", err)
	}
	if !sameControl(&c, complete) {
		t.Fatalf("failed decode changed the message to %+v", c)
	}
}

// TestControlDecodeNoAlloc: a Control backed by a MaxCreditsPerMsg
// array decodes a full grant without allocating.
func TestControlDecodeNoAlloc(t *testing.T) {
	in := &Control{Type: MsgMRInfoResponse}
	for i := 0; i < MaxCreditsPerMsg; i++ {
		in.Credits = append(in.Credits, Credit{Addr: uint64(i), RKey: uint32(i), Len: 1})
	}
	b, _ := in.Encode(nil)
	var backing [MaxCreditsPerMsg]Credit
	c := Control{Credits: backing[:0]}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Decode(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decode allocates %v times per call", allocs)
	}
}

// TestDecodeControlExactCredits: a fresh decode sizes Credits to the
// message, so a grant costs one allocation for its credits, not a
// growth series.
func TestDecodeControlExactCredits(t *testing.T) {
	in := &Control{Type: MsgMRInfoResponse, Credits: make([]Credit, 16)}
	b, _ := in.Encode(nil)
	out, err := DecodeControl(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Credits) != 16 || cap(out.Credits) != 16 {
		t.Fatalf("credits len %d cap %d, want 16/16", len(out.Credits), cap(out.Credits))
	}
}

func TestControlEncodeAppends(t *testing.T) {
	prefix := []byte("prefix")
	in := &Control{Type: MsgAbort}
	b, _ := in.Encode(prefix)
	if string(b[:6]) != "prefix" || len(b) != 6+ControlHeaderSize {
		t.Fatalf("append semantics broken: len=%d", len(b))
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for ty := MsgBlockSizeReq; ty <= MsgAbort; ty++ {
		if s := ty.String(); s == "" || s[0] == 'M' && s[1] == 's' {
			t.Fatalf("MsgType(%d) has no name: %q", ty, s)
		}
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Fatal("unknown type string")
	}
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	in := BlockHeader{Session: 3, Seq: 77, Offset: 9 << 33, PayloadLen: 1 << 22, Last: true}
	buf := make([]byte, BlockHeaderSize)
	if err := EncodeBlockHeader(buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBlockHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: in=%+v out=%+v", in, out)
	}
}

func TestBlockHeaderShortBuffers(t *testing.T) {
	if err := EncodeBlockHeader(make([]byte, BlockHeaderSize-1), BlockHeader{}); err != ErrShortMessage {
		t.Fatalf("encode short: %v", err)
	}
	if _, err := DecodeBlockHeader(make([]byte, BlockHeaderSize-1)); err != ErrShortMessage {
		t.Fatalf("decode short: %v", err)
	}
}

func TestBlockHeaderReservedZeroed(t *testing.T) {
	buf := make([]byte, BlockHeaderSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	EncodeBlockHeader(buf, BlockHeader{Session: 1})
	for i := 21; i < BlockHeaderSize; i++ {
		if buf[i] != 0 {
			t.Fatalf("reserved byte %d not zeroed", i)
		}
	}
}

// Property: Control encode/decode is a bijection on valid messages.
func TestControlRoundTripProperty(t *testing.T) {
	f := func(ty uint8, flags uint8, sess, seq, rkey, length uint32, addr, assoc uint64, nCred uint8) bool {
		in := &Control{
			Type: MsgType(ty), Flags: flags, Session: sess, Seq: seq,
			Addr: addr, RKey: rkey, Length: length, AssocData: assoc,
		}
		for i := 0; i < int(nCred)%MaxCreditsPerMsg; i++ {
			in.Credits = append(in.Credits, Credit{
				Addr: addr ^ uint64(i), RKey: rkey + uint32(i), Len: length ^ uint32(i),
			})
		}
		b, err := in.Encode(nil)
		if err != nil {
			return false
		}
		out, err := DecodeControl(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: BlockHeader encode/decode is a bijection.
func TestBlockHeaderRoundTripProperty(t *testing.T) {
	f := func(sess, seq, plen uint32, off uint64, last bool) bool {
		in := BlockHeader{Session: sess, Seq: seq, Offset: off, PayloadLen: plen, Last: last}
		buf := make([]byte, BlockHeaderSize)
		if err := EncodeBlockHeader(buf, in); err != nil {
			return false
		}
		out, err := DecodeBlockHeader(buf)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		DecodeControl(b)
		DecodeBlockHeader(b)
	}
}

func BenchmarkControlEncode(b *testing.B) {
	c := &Control{Type: MsgMRInfoResponse, Credits: make([]Credit, 2)}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		c.Encode(buf)
	}
}

func BenchmarkControlDecode(b *testing.B) {
	c := &Control{Type: MsgMRInfoResponse, Credits: make([]Credit, 2)}
	buf, _ := c.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DecodeControl(buf)
	}
}
