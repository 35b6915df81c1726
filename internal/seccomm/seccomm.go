// Package seccomm implements the encrypted sensor-to-server link: message
// sealing with either a ChaCha20 stream cipher (the simulator's cipher,
// §5.1) or an AES-128 block cipher in CBC mode (the MCU's cipher, which has
// a hardware AES accelerator, §5.7), plus length-prefixed framing for the
// TCP transport.
//
// The cipher choice matters to the side-channel: a stream cipher preserves
// the plaintext length exactly, while a block cipher rounds it up to the
// block size — coarsening, but not closing, the leak. AGE supports both by
// sizing its fixed target to the wire (§4.5): as given for a stream cipher,
// rounded to a block for a block cipher.
package seccomm

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/chacha"
)

// CipherKind selects the sealing algorithm.
type CipherKind int

// The evaluated ciphers. The paper's simulator uses the bare ChaCha20
// stream and the MCU uses AES-128-CBC; the AEAD variant adds RFC 7539's
// Poly1305 authentication, which deployments should prefer — its constant
// 16-byte tag leaves the message-size side-channel exactly as exposed.
const (
	// ChaCha20Stream is the IETF RFC 7539 stream cipher (simulator).
	ChaCha20Stream CipherKind = iota
	// AES128Block is AES-128-CBC with PKCS#7 padding (MCU hardware).
	AES128Block
	// ChaCha20Poly1305 is the RFC 7539 AEAD.
	ChaCha20Poly1305
)

// String implements fmt.Stringer.
func (k CipherKind) String() string {
	switch k {
	case ChaCha20Stream:
		return "chacha20"
	case AES128Block:
		return "aes128-cbc"
	case ChaCha20Poly1305:
		return "chacha20-poly1305"
	default:
		return fmt.Sprintf("cipher(%d)", int(k))
	}
}

// Sealer encrypts payloads into wire messages and back. Implementations are
// stateful (nonce counters) and not safe for concurrent use.
type Sealer interface {
	// Seal encrypts a payload into a wire message.
	Seal(plaintext []byte) ([]byte, error)
	// Open decrypts a wire message back into the payload.
	Open(message []byte) ([]byte, error)
	// WireSize predicts the sealed size for a payload length — the
	// quantity the attacker observes.
	WireSize(plaintextLen int) int
}

// sealerInstance hands out a process-unique 4-byte prefix per sealer. The
// prefix occupies the nonce/IV bytes the per-message counter does not use,
// so two sealers built from the same key — a real shape in the fleet, where
// a sensor may be re-created or redial after a fault — can never emit the
// same (key, nonce) pair even though both counters restart at zero. That
// makes counter-nonce keystream reuse structurally impossible instead of a
// caller discipline. The counter wraps only after 2^32 sealers in one
// process, far beyond any fleet run.
var sealerInstance atomic.Uint32

// ErrBadKey marks a key whose length does not fit the requested cipher.
// NewSealer wraps it into its descriptive per-cipher message so callers can
// branch with errors.Is; the root package re-exports it.
var ErrBadKey = errors.New("key length invalid for cipher")

// NewSealer constructs a sealer of the given kind. key must be 32 bytes for
// ChaCha20 and 16 bytes for AES-128. Peers must construct sealers with the
// same key and kind; nonces/IVs travel in the message, so the receiver does
// not need to know the sender's instance prefix. Each sealer seals with
// nonces no other sealer in this process will ever produce.
func NewSealer(kind CipherKind, key []byte) (Sealer, error) {
	id := sealerInstance.Add(1)
	switch kind {
	case ChaCha20Stream:
		if len(key) != chacha.KeySize {
			return nil, fmt.Errorf("seccomm: chacha20 key must be %d bytes, got %d: %w", chacha.KeySize, len(key), ErrBadKey)
		}
		return &chachaSealer{key: append([]byte(nil), key...), instance: id}, nil
	case AES128Block:
		if len(key) != 16 {
			return nil, fmt.Errorf("seccomm: aes-128 key must be 16 bytes, got %d: %w", len(key), ErrBadKey)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return &aesSealer{block: block, instance: id}, nil
	case ChaCha20Poly1305:
		if len(key) != chacha.KeySize {
			return nil, fmt.Errorf("seccomm: chacha20-poly1305 key must be %d bytes, got %d: %w", chacha.KeySize, len(key), ErrBadKey)
		}
		aead, err := chacha.NewAEAD(key)
		if err != nil {
			return nil, err
		}
		return &aeadSealer{aead: aead, instance: id}, nil
	default:
		return nil, fmt.Errorf("seccomm: unknown cipher kind %d", kind)
	}
}

// chachaSealer seals with ChaCha20 using a 12-byte nonce carried in the
// message: 4 bytes of process-unique instance prefix, then the 8-byte
// message counter — the standard low-power pattern (a counter instead of a
// random nonce avoids an RNG on the sensor), with the prefix closing the
// counter-restart reuse hole.
type chachaSealer struct {
	key      []byte
	instance uint32
	counter  uint64
}

func (s *chachaSealer) WireSize(plaintextLen int) int {
	return chacha.NonceSize + plaintextLen
}

func (s *chachaSealer) Seal(plaintext []byte) ([]byte, error) {
	nonce := make([]byte, chacha.NonceSize)
	binary.BigEndian.PutUint32(nonce[:4], s.instance)
	binary.BigEndian.PutUint64(nonce[4:], s.counter)
	s.counter++
	ct, err := chacha.Encrypt(s.key, nonce, plaintext)
	if err != nil {
		return nil, err
	}
	return append(nonce, ct...), nil
}

func (s *chachaSealer) Open(message []byte) ([]byte, error) {
	if len(message) < chacha.NonceSize {
		return nil, errors.New("seccomm: message shorter than nonce")
	}
	return chacha.Encrypt(s.key, message[:chacha.NonceSize], message[chacha.NonceSize:])
}

// aesSealer seals with AES-128-CBC and PKCS#7 padding; the IV carried in
// the message is [4B instance prefix][4B zero][8B message counter].
type aesSealer struct {
	block    cipher.Block
	instance uint32
	counter  uint64
}

func (s *aesSealer) WireSize(plaintextLen int) int {
	padded := (plaintextLen/aes.BlockSize + 1) * aes.BlockSize // PKCS#7 always pads
	return aes.BlockSize + padded
}

func (s *aesSealer) Seal(plaintext []byte) ([]byte, error) {
	iv := make([]byte, aes.BlockSize)
	binary.BigEndian.PutUint32(iv[:4], s.instance)
	binary.BigEndian.PutUint64(iv[8:], s.counter)
	s.counter++
	pad := aes.BlockSize - len(plaintext)%aes.BlockSize
	padded := make([]byte, len(plaintext)+pad)
	copy(padded, plaintext)
	for i := len(plaintext); i < len(padded); i++ {
		padded[i] = byte(pad)
	}
	out := make([]byte, aes.BlockSize+len(padded))
	copy(out, iv)
	cipher.NewCBCEncrypter(s.block, iv).CryptBlocks(out[aes.BlockSize:], padded)
	return out, nil
}

// errAESMalformed is the single error for every malformed AES-CBC message.
// Length and padding failures are deliberately indistinguishable: distinct
// errors (or early returns keyed on secret pad bytes) are the classic
// padding-oracle shape, and a low-power link gives the attacker plenty of
// queries.
var errAESMalformed = errors.New("seccomm: malformed aes message")

func (s *aesSealer) Open(message []byte) ([]byte, error) {
	if len(message) < 2*aes.BlockSize || (len(message)-aes.BlockSize)%aes.BlockSize != 0 {
		return nil, errAESMalformed
	}
	iv := message[:aes.BlockSize]
	ct := message[aes.BlockSize:]
	pt := make([]byte, len(ct))
	cipher.NewCBCDecrypter(s.block, iv).CryptBlocks(pt, ct)
	// Constant-time PKCS#7 check: validate the pad length range and every
	// in-pad byte without branching on plaintext, so timing does not leak
	// which byte was wrong. len(pt) >= BlockSize >= pad holds by the length
	// check above.
	padByte := pt[len(pt)-1]
	pad := int(padByte)
	valid := subtle.ConstantTimeLessOrEq(1, pad) & subtle.ConstantTimeLessOrEq(pad, aes.BlockSize)
	bad := 0
	for i := 1; i <= aes.BlockSize; i++ {
		inPad := subtle.ConstantTimeLessOrEq(i, pad)
		eq := subtle.ConstantTimeByteEq(pt[len(pt)-i], padByte)
		bad |= inPad & (eq ^ 1)
	}
	if valid&(bad^1) != 1 {
		return nil, errAESMalformed
	}
	return pt[:len(pt)-pad], nil
}

// aeadSealer seals with ChaCha20-Poly1305; the prefixed counter nonce and
// the tag travel in the message.
type aeadSealer struct {
	aead     *chacha.AEAD
	instance uint32
	counter  uint64
}

func (s *aeadSealer) WireSize(plaintextLen int) int {
	return chacha.NonceSize + plaintextLen + chacha.TagSize
}

func (s *aeadSealer) Seal(plaintext []byte) ([]byte, error) {
	nonce := make([]byte, chacha.NonceSize)
	binary.BigEndian.PutUint32(nonce[:4], s.instance)
	binary.BigEndian.PutUint64(nonce[4:], s.counter)
	s.counter++
	sealed, err := s.aead.Seal(nonce, plaintext, nil)
	if err != nil {
		return nil, err
	}
	return append(nonce, sealed...), nil
}

func (s *aeadSealer) Open(message []byte) ([]byte, error) {
	if len(message) < chacha.NonceSize+chacha.TagSize {
		return nil, errors.New("seccomm: aead message too short")
	}
	return s.aead.Open(message[:chacha.NonceSize], message[chacha.NonceSize:], nil)
}

// RoundTargetToCipher adjusts AGE's target payload size so the *wire*
// message has a clean fixed size under the given cipher (§4.5): unchanged
// for a stream cipher, rounded down to fill whole AES blocks for a block
// cipher (PKCS#7 always adds 1..16 bytes, so a target of 16k-1 payload
// bytes yields exactly k blocks).
func RoundTargetToCipher(target int, kind CipherKind) int {
	if kind != AES128Block {
		return target
	}
	blocks := (target + 1 + aes.BlockSize - 1) / aes.BlockSize
	r := blocks*aes.BlockSize - 1
	if r < 1 {
		r = aes.BlockSize - 1
	}
	return r
}

// MaxFrameSize bounds a frame's payload, set by the 2-byte length prefix.
const MaxFrameSize = 1<<16 - 1

// AppendFrame appends msg's wire encoding (2-byte big-endian length prefix
// plus the bytes) to dst and returns the extended slice. The prefix models
// the link layer; the attacker reads it (and the observable packet length)
// to learn the message size. Callers gathering
// several frames into one Write — the ingest client's batched frame path —
// build the buffer with repeated AppendFrame calls; a receiver sees the same
// byte stream as one write per frame produces.
func AppendFrame(dst, msg []byte) ([]byte, error) {
	if len(msg) > MaxFrameSize {
		return dst, fmt.Errorf("seccomm: frame %dB exceeds max %d", len(msg), MaxFrameSize)
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(msg)))
	return append(append(dst, hdr[:]...), msg...), nil
}

// ReadFrame reads one length-prefixed message.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	msg := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// FrameReader reads length-prefixed frames from a connection through an
// internal buffer, coalescing many small frames into one socket read. The
// ingest server's frame loop uses it: with clients gathering frames into
// batched writes, per-frame socket reads would throw the syscall savings
// away on the receive side. Each returned frame is freshly allocated, so
// callers may retain it — the same contract as ReadFrame.
type FrameReader struct {
	conn net.Conn
	br   *bufio.Reader
	hdr  [2]byte // length prefix scratch; a local would escape through io.ReadFull
}

// NewFrameReader wraps conn with a read buffer of the given size (<= 0
// selects a default sized for a typical gathered write of small frames).
// After the first ReadFrame call, conn must not be read directly — buffered
// bytes would be lost.
func NewFrameReader(conn net.Conn, size int) *FrameReader {
	if size <= 0 {
		size = 4096
	}
	return &FrameReader{conn: conn, br: bufio.NewReaderSize(conn, size)}
}

// ReadFrame reads one frame, failing with a net timeout error if the whole
// frame has not arrived within timeout (<= 0 reads without a deadline). The
// deadline governs the underlying socket reads; a frame already buffered
// whole, header and body, is returned without touching the socket, not
// even to set or clear the deadline.
func (fr *FrameReader) ReadFrame(timeout time.Duration) ([]byte, error) {
	if timeout > 0 && !fr.frameBuffered() {
		if err := fr.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer fr.conn.SetReadDeadline(time.Time{})
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	msg := make([]byte, binary.BigEndian.Uint16(fr.hdr[:]))
	if _, err := io.ReadFull(fr.br, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// frameBuffered reports whether the read buffer holds the next frame
// whole, so reading it cannot block on the socket.
func (fr *FrameReader) frameBuffered() bool {
	n := fr.br.Buffered()
	if n < 2 {
		return false
	}
	hdr, _ := fr.br.Peek(2) // served from the buffer: n >= 2
	return n >= 2+int(binary.BigEndian.Uint16(hdr))
}

// IsTimeout reports whether err is a network timeout (a deadline expiry) —
// the one transport failure the hardened paths treat as retryable.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ReadFullDeadline fills buf from conn under the same deadline discipline;
// the fleet server uses it for the cleartext hello that precedes framing.
func ReadFullDeadline(conn net.Conn, buf []byte, timeout time.Duration) error {
	if timeout <= 0 {
		_, err := io.ReadFull(conn, buf)
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	_, err := io.ReadFull(conn, buf)
	conn.SetReadDeadline(time.Time{})
	return err
}
