package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt reports a WAL whose damage exceeds a torn final frame: a
// bad CRC or impossible length in the middle of the record sequence.
// The public surfaces wrap it into skybench.ErrCorruptWAL.
var ErrCorrupt = errors.New("wal: corrupt record")

// HeaderSize is the length of the header in front of every framed
// payload:
//
//	uint32 payload length | uint32 CRC-32C(payload)
//
// little-endian. The log's on-disk records and the sections of the
// serving layer's binary result frame (serve/frame.go) share it, through
// the helpers below — one definition of the header.
const HeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum returns the CRC-32C the header carries for payload.
func checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// PutHeader writes payload's header into hdr[:HeaderSize]. It lets a
// caller that built the payload in place, behind HeaderSize reserved
// bytes, frame it without a copy.
func PutHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], checksum(payload))
}

// AppendFrame appends payload's header and payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], payload)
	return append(append(dst, hdr[:]...), payload...)
}

// header decodes hdr[:HeaderSize] into the payload length and checksum
// it announces.
func header(hdr []byte) (length, crc uint32) {
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
}

// NextFrame splits the first frame off b: its verified payload and the
// bytes after it, both aliasing b. The announced length is checked
// against the bytes present before the checksum is, and nothing is
// allocated; a short header, a length past the end of b or a checksum
// mismatch is an error wrapping ErrCorrupt.
func NextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes where a frame header needs %d", ErrCorrupt, len(b), HeaderSize)
	}
	length, crc := header(b)
	if uint64(length) > uint64(len(b)-HeaderSize) {
		return nil, nil, fmt.Errorf("%w: frame announces %d payload bytes, %d present", ErrCorrupt, length, len(b)-HeaderSize)
	}
	payload, rest = b[HeaderSize:HeaderSize+int(length)], b[HeaderSize+int(length):]
	if checksum(payload) != crc {
		return nil, nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return payload, rest, nil
}
