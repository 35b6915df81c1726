package chacha

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// AEAD construction of RFC 7539 §2.8: ChaCha20-Poly1305. Seal encrypts the
// plaintext with ChaCha20 (counter 1) and authenticates
// aad || pad || ciphertext || pad || len(aad) || len(ciphertext) with a
// Poly1305 key drawn from the keystream at counter 0.

// ErrAuthFailed is returned by Open when the tag does not verify.
var ErrAuthFailed = errors.New("chacha: message authentication failed")

// AEAD is a ChaCha20-Poly1305 instance bound to a key.
type AEAD struct {
	key []byte
}

// NewAEAD returns an AEAD for the 32-byte key.
func NewAEAD(key []byte) (*AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("chacha: AEAD key must be %d bytes, got %d", KeySize, len(key))
	}
	return &AEAD{key: append([]byte(nil), key...)}, nil
}

// Seal encrypts and authenticates plaintext with the 12-byte nonce and
// optional additional data, returning ciphertext || tag.
func (a *AEAD) Seal(nonce, plaintext, aad []byte) ([]byte, error) {
	ct, err := Encrypt(a.key, nonce, plaintext)
	if err != nil {
		return nil, err
	}
	tag, err := a.tag(nonce, ct, aad)
	if err != nil {
		return nil, err
	}
	return append(ct, tag[:]...), nil
}

// Open verifies and decrypts a message produced by Seal.
func (a *AEAD) Open(nonce, message, aad []byte) ([]byte, error) {
	if len(message) < TagSize {
		return nil, ErrAuthFailed
	}
	ct, got := message[:len(message)-TagSize], message[len(message)-TagSize:]
	want, err := a.tag(nonce, ct, aad)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(got, want[:]) != 1 {
		return nil, ErrAuthFailed
	}
	return Encrypt(a.key, nonce, ct)
}

// tag computes the Poly1305 tag over the RFC's AEAD transcript.
func (a *AEAD) tag(nonce, ciphertext, aad []byte) ([TagSize]byte, error) {
	otk, err := oneTimeKey(a.key, nonce)
	if err != nil {
		return [TagSize]byte{}, err
	}
	msg := make([]byte, 0, len(aad)+len(ciphertext)+32)
	msg = append(msg, aad...)
	msg = appendPad16(msg)
	msg = append(msg, ciphertext...)
	msg = appendPad16(msg)
	var lens [16]byte
	binary.LittleEndian.PutUint64(lens[0:8], uint64(len(aad)))
	binary.LittleEndian.PutUint64(lens[8:16], uint64(len(ciphertext)))
	msg = append(msg, lens[:]...)
	return poly1305(otk, msg), nil
}

func appendPad16(b []byte) []byte {
	if n := len(b) % 16; n != 0 {
		b = append(b, make([]byte, 16-n)...)
	}
	return b
}
