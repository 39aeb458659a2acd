package core

import (
	"errors"
	"testing"

	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// TestCheckArrival runs the one block-header validator over the
// mismatch cases of the three call sites it replaced: the explicit
// BLOCK_COMPLETE handler (notice names session, seq and length), the
// WRITE WITH IMMEDIATE handler (notice is an rkey plus a byte count, so
// only the owner stamp and the length can disagree), and the READ
// completion (the "notice" is the advertisement the block was stamped
// from).
func TestCheckArrival(t *testing.T) {
	const anySeq = -1
	type hdr = wire.BlockHeader
	cases := []struct {
		name    string
		owner   uint32 // session stamped on the region when it was offered
		landed  hdr    // header the data path left in the region
		session uint32 // the notice's claims
		seq     int64
		length  int
		ok      bool
	}{
		{"complete/match", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100}, 3, 7, 100, true},
		{"complete/other seq", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100}, 3, 8, 100, false},
		{"complete/other length", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100}, 3, 7, 101, false},
		{"complete/other session", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100}, 4, 7, 100, false},
		{"complete/landed in another tenant's region", 3, hdr{Session: 4, Seq: 7, PayloadLen: 100}, 4, 7, 100, false},
		{"imm/match, seq unnamed", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100}, 3, anySeq, 100, true},
		{"imm/byte count disagrees", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100}, 3, anySeq, 99, false},
		{"imm/landed in another tenant's region", 3, hdr{Session: 4, Seq: 7, PayloadLen: 100}, 3, anySeq, 100, false},
		{"read/match", 3, hdr{Session: 3, Seq: 7, PayloadLen: 100, Last: true}, 3, 7, 100, true},
		{"read/region changed seq after advert", 3, hdr{Session: 3, Seq: 9, PayloadLen: 100}, 3, 7, 100, false},
		{"read/region changed length after advert", 3, hdr{Session: 3, Seq: 7, PayloadLen: 64}, 3, 7, 100, false},
		{"read/region changed session after advert", 3, hdr{Session: 5, Seq: 7, PayloadLen: 100}, 3, 7, 100, false},
	}
	as := verbs.NewAddressSpace()
	for _, tc := range cases {
		mr, err := as.Register(&verbs.PD{}, make([]byte, wire.BlockHeaderSize+128), verbs.AccessLocalWrite)
		if err != nil {
			t.Fatal(err)
		}
		wire.EncodeBlockHeader(mr.Buf, tc.landed)
		b := &block{mr: mr, session: tc.owner}
		got, err := checkArrival(b, tc.session, tc.seq, tc.length)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.ok && got != tc.landed:
			t.Errorf("%s: header = %+v, want %+v", tc.name, got, tc.landed)
		case !tc.ok && !errors.Is(err, ErrProtocol):
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, err)
		}
	}

	short, err := as.Register(&verbs.PD{}, make([]byte, wire.BlockHeaderSize-1), verbs.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkArrival(&block{mr: short}, 0, anySeq, 0); !errors.Is(err, ErrProtocol) {
		t.Errorf("undecodable header: err = %v, want ErrProtocol", err)
	}
}
