// Package wire defines the protocol message formats from the paper's
// Figure 7: the control message exchanged on the dedicated control queue
// pair (7a) and the header prepended to every user-payload bulk data
// block delivered over the data channel queue pairs (7b).
//
// All integers are big-endian (network order).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType enumerates control message types. The first group implements
// phase 1 (initialization and parameter negotiation), the second group
// phase 2 (data transfer), and the last group phase 3 (teardown).
type MsgType uint8

// Control message types.
const (
	// Negotiation (phase 1).
	MsgBlockSizeReq  MsgType = iota + 1 // propose block size (AssocData = bytes)
	MsgBlockSizeResp                    // accept/reject (Flags&FlagAccept)
	MsgChannelsReq                      // propose number of data channel QPs
	MsgChannelsResp
	MsgSessionReq  // open a session (AssocData = total bytes, Length = block size)
	MsgSessionResp // sink acks with the session id it allocated

	// Data transfer (phase 2).
	MsgMRInfoRequest  // source out of credits; sink MUST respond when one frees
	MsgMRInfoResponse // credits: one or more (Addr, RKey) pairs
	MsgBlockComplete  // a block finished; Addr/RKey name the consumed region

	// Teardown (phase 3).
	MsgDatasetComplete    // whole dataset delivered
	MsgDatasetCompleteAck // sink confirms
	MsgAbort              // fatal error; Session is torn down

	// Pull mode (phase 2, RDMA-READ data path). The advertisement is the
	// mirror image of the MR_INFO credit grant: instead of the sink
	// exposing landing regions for source WRITEs, the source exposes
	// loaded blocks for sink READs.
	MsgBlockAdvert   // source advertises a loaded block (Seq, Addr/RKey, Length = payload, AssocData = offset)
	MsgReadDone      // sink finished READing the advertised block; source may recycle it
	MsgModeSwitchReq // source requests push<->pull switch (AssocData = cumulative blocks sent)
	MsgModeSwitchAck // sink confirms the switch (AssocData = cumulative blocks arrived)
)

func (t MsgType) String() string {
	switch t {
	case MsgBlockSizeReq:
		return "BLOCK_SIZE_REQ"
	case MsgBlockSizeResp:
		return "BLOCK_SIZE_RESP"
	case MsgChannelsReq:
		return "CHANNELS_REQ"
	case MsgChannelsResp:
		return "CHANNELS_RESP"
	case MsgSessionReq:
		return "SESSION_REQ"
	case MsgSessionResp:
		return "SESSION_RESP"
	case MsgMRInfoRequest:
		return "MR_INFO_REQUEST"
	case MsgMRInfoResponse:
		return "MR_INFO_RESPONSE"
	case MsgBlockComplete:
		return "BLOCK_COMPLETE"
	case MsgDatasetComplete:
		return "DATASET_COMPLETE"
	case MsgDatasetCompleteAck:
		return "DATASET_COMPLETE_ACK"
	case MsgAbort:
		return "ABORT"
	case MsgBlockAdvert:
		return "BLOCK_ADVERT"
	case MsgReadDone:
		return "READ_DONE"
	case MsgModeSwitchReq:
		return "MODE_SWITCH_REQ"
	case MsgModeSwitchAck:
		return "MODE_SWITCH_ACK"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Control message flags.
const (
	// FlagAccept marks a negotiation response as accepted.
	FlagAccept uint8 = 1 << iota
	// FlagImmNotify, on MsgBlockSizeReq/Resp, selects RDMA WRITE WITH
	// IMMEDIATE completion notification instead of explicit
	// BLOCK_COMPLETE control messages.
	FlagImmNotify
	// FlagBusy, on MsgSessionResp without FlagAccept, distinguishes the
	// sink's admission control turning a session away at capacity
	// (SESSION_BUSY — retry later) from a hard negotiation rejection.
	FlagBusy
	// FlagModePull selects the pull (RDMA READ) data path: on
	// MsgSessionReq it opens the session directly in pull mode, on
	// MsgModeSwitchReq/Ack it names the target mode (absent = push).
	FlagModePull
	// FlagLastBlock, on MsgBlockAdvert, marks the advertisement of the
	// session's final block.
	FlagLastBlock
)

// Credit advertises one available remote memory region (a token with a
// destination address, in the paper's terms).
type Credit struct {
	Addr uint64
	RKey uint32
	Len  uint32
}

const creditSize = 16

// ControlHeaderSize is the fixed control message header length.
const ControlHeaderSize = 40

// MaxCreditsPerMsg bounds the credits one MR_INFO_RESPONSE can carry.
const MaxCreditsPerMsg = 64

// Control is a control message (Figure 7a): a fixed header plus, for
// MR_INFO_RESPONSE, a list of credits.
type Control struct {
	Type    MsgType
	Flags   uint8
	Session uint32
	// Seq is the block sequence number for MsgBlockComplete.
	Seq uint32
	// Addr/RKey name a memory region (completed block for
	// MsgBlockComplete).
	Addr uint64
	RKey uint32
	// Length is the payload length of the referenced block.
	Length uint32
	// AssocData is the "Type Associated Data" field used during
	// negotiation (proposed block size, channel count, dataset size).
	AssocData uint64
	// Credits ride only on MsgMRInfoResponse.
	Credits []Credit
}

// Errors returned by decoding.
var (
	ErrShortMessage = errors.New("wire: message truncated")
	ErrBadCount     = errors.New("wire: credit count out of range")
)

// EncodedLen returns the encoded size of the message.
func (c *Control) EncodedLen() int { return ControlHeaderSize + len(c.Credits)*creditSize }

// Encode appends the encoded message to dst and returns the result.
func (c *Control) Encode(dst []byte) ([]byte, error) {
	if len(c.Credits) > MaxCreditsPerMsg {
		return nil, ErrBadCount
	}
	var h [ControlHeaderSize]byte
	h[0] = byte(c.Type)
	h[1] = c.Flags
	binary.BigEndian.PutUint16(h[2:4], uint16(len(c.Credits)))
	binary.BigEndian.PutUint32(h[4:8], c.Session)
	binary.BigEndian.PutUint32(h[8:12], c.Seq)
	binary.BigEndian.PutUint64(h[12:20], c.Addr)
	binary.BigEndian.PutUint32(h[20:24], c.RKey)
	binary.BigEndian.PutUint32(h[24:28], c.Length)
	binary.BigEndian.PutUint64(h[28:36], c.AssocData)
	// h[36:40] reserved
	dst = append(dst, h[:]...)
	for _, cr := range c.Credits {
		var e [creditSize]byte
		binary.BigEndian.PutUint64(e[0:8], cr.Addr)
		binary.BigEndian.PutUint32(e[8:12], cr.RKey)
		binary.BigEndian.PutUint32(e[12:16], cr.Len)
		dst = append(dst, e[:]...)
	}
	return dst, nil
}

// DecodeControl parses a control message into a fresh Control whose
// Credits, when the message carries any, is sized exactly to them.
func DecodeControl(b []byte) (*Control, error) {
	if len(b) < ControlHeaderSize {
		return nil, ErrShortMessage
	}
	c := &Control{}
	if n := int(binary.BigEndian.Uint16(b[2:4])); n > 0 && n <= MaxCreditsPerMsg {
		c.Credits = make([]Credit, 0, n)
	}
	if err := c.Decode(b); err != nil {
		return nil, err
	}
	return c, nil
}

// Decode parses a control message into c, overwriting every field and
// reusing Credits' backing array: a Control whose Credits has capacity
// MaxCreditsPerMsg decodes any message without allocating. On error c
// is left unchanged.
func (c *Control) Decode(b []byte) error {
	if len(b) < ControlHeaderSize {
		return ErrShortMessage
	}
	n := int(binary.BigEndian.Uint16(b[2:4]))
	if n > MaxCreditsPerMsg {
		return ErrBadCount
	}
	if len(b) < ControlHeaderSize+n*creditSize {
		return ErrShortMessage
	}
	*c = Control{
		Type:      MsgType(b[0]),
		Flags:     b[1],
		Session:   binary.BigEndian.Uint32(b[4:8]),
		Seq:       binary.BigEndian.Uint32(b[8:12]),
		Addr:      binary.BigEndian.Uint64(b[12:20]),
		RKey:      binary.BigEndian.Uint32(b[20:24]),
		Length:    binary.BigEndian.Uint32(b[24:28]),
		AssocData: binary.BigEndian.Uint64(b[28:36]),
		Credits:   c.Credits[:0],
	}
	for i := 0; i < n; i++ {
		off := ControlHeaderSize + i*creditSize
		c.Credits = append(c.Credits, Credit{
			Addr: binary.BigEndian.Uint64(b[off : off+8]),
			RKey: binary.BigEndian.Uint32(b[off+8 : off+12]),
			Len:  binary.BigEndian.Uint32(b[off+12 : off+16]),
		})
	}
	return nil
}

// BlockHeaderSize is the user-payload block header length (Figure 7b:
// session id, sequence number, offset, payload length, reserved).
const BlockHeaderSize = 32

// BlockHeader prefixes every user-payload data block (Figure 7b). The
// sink uses (Session, Seq) to reassemble out-of-order arrivals from
// parallel queue pairs into an in-order stream.
type BlockHeader struct {
	Session uint32
	Seq     uint32
	// Offset is the byte offset of this block within the dataset.
	Offset uint64
	// PayloadLen is the user payload length in this block (may be short
	// for the final block).
	PayloadLen uint32
	// Last marks the final block of the session.
	Last bool
}

// EncodeBlockHeader writes the header into dst (at least BlockHeaderSize
// bytes).
func EncodeBlockHeader(dst []byte, h BlockHeader) error {
	if len(dst) < BlockHeaderSize {
		return ErrShortMessage
	}
	binary.BigEndian.PutUint32(dst[0:4], h.Session)
	binary.BigEndian.PutUint32(dst[4:8], h.Seq)
	binary.BigEndian.PutUint64(dst[8:16], h.Offset)
	binary.BigEndian.PutUint32(dst[16:20], h.PayloadLen)
	var flags uint8
	if h.Last {
		flags = 1
	}
	dst[20] = flags
	for i := 21; i < BlockHeaderSize; i++ {
		dst[i] = 0 // reserved
	}
	return nil
}

// DecodeBlockHeader parses a block header.
func DecodeBlockHeader(b []byte) (BlockHeader, error) {
	if len(b) < BlockHeaderSize {
		return BlockHeader{}, ErrShortMessage
	}
	return BlockHeader{
		Session:    binary.BigEndian.Uint32(b[0:4]),
		Seq:        binary.BigEndian.Uint32(b[4:8]),
		Offset:     binary.BigEndian.Uint64(b[8:16]),
		PayloadLen: binary.BigEndian.Uint32(b[16:20]),
		Last:       b[20]&1 != 0,
	}, nil
}
