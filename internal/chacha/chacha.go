// Package chacha implements the ChaCha20 stream cipher as specified in IETF
// RFC 7539 (now RFC 8439). The paper's simulator encrypts the sensor-server
// link with ChaCha20 (§5.1); Go's standard library does not ship it, so it is
// implemented here from the RFC and validated against the RFC's test vectors.
//
// A stream cipher preserves plaintext length exactly, which is precisely why
// batched message sizes leak the adaptive policy's collection rate — and why
// AGE's fixed-length output closes the channel.
package chacha

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

const (
	// KeySize is the ChaCha20 key length in bytes.
	KeySize = 32
	// NonceSize is the RFC 7539 (96-bit) nonce length in bytes.
	NonceSize = 12
	blockSize = 64
)

// Cipher is a ChaCha20 keystream generator bound to a key and nonce. It
// implements encryption and decryption (which are the same XOR operation).
// A Cipher tracks its block counter, so successive XORKeyStream calls
// continue the keystream; do not reuse a (key, nonce) pair across messages.
type Cipher struct {
	state   [16]uint32 // initial state template (counter at index 12)
	counter uint32
	buf     [blockSize]byte // leftover keystream
	bufUsed int             // bytes of buf already consumed (blockSize = empty)
}

// New creates a ChaCha20 cipher with the given 256-bit key and 96-bit nonce,
// starting at the given initial block counter (RFC 7539 uses 1 for the cipher
// proper and 0 for deriving a Poly1305 key).
func New(key, nonce []byte, counter uint32) (*Cipher, error) {
	c := new(Cipher)
	if err := c.Reset(key, nonce, counter); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebinds c to the key and nonce at the given initial block counter,
// discarding any buffered keystream; the result is the cipher New returns.
// A Cipher value reset in place can live on the stack.
//
//age:hotpath
func (c *Cipher) Reset(key, nonce []byte, counter uint32) error {
	if len(key) != KeySize {
		return fmt.Errorf("chacha: key must be %d bytes, got %d", KeySize, len(key))
	}
	if len(nonce) != NonceSize {
		return fmt.Errorf("chacha: nonce must be %d bytes, got %d", NonceSize, len(nonce))
	}
	c.counter, c.bufUsed = counter, blockSize
	// "expand 32-byte k" constants.
	c.state[0] = 0x61707865
	c.state[1] = 0x3320646e
	c.state[2] = 0x79622d32
	c.state[3] = 0x6b206574
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	for i := 0; i < 3; i++ {
		c.state[13+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	return nil
}

func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = d<<16 | d>>16
	c += d
	b ^= c
	b = b<<12 | b>>20
	a += b
	d ^= a
	d = d<<8 | d>>24
	c += d
	b ^= c
	b = b<<7 | b>>25
	return a, b, c, d
}

// block generates one 64-byte keystream block for the given counter.
func (c *Cipher) block(counter uint32, out *[blockSize]byte) {
	var x [16]uint32
	copy(x[:], c.state[:])
	x[12] = counter
	w := x
	for i := 0; i < 10; i++ { // 20 rounds = 10 double rounds
		// Column rounds.
		w[0], w[4], w[8], w[12] = quarterRound(w[0], w[4], w[8], w[12])
		w[1], w[5], w[9], w[13] = quarterRound(w[1], w[5], w[9], w[13])
		w[2], w[6], w[10], w[14] = quarterRound(w[2], w[6], w[10], w[14])
		w[3], w[7], w[11], w[15] = quarterRound(w[3], w[7], w[11], w[15])
		// Diagonal rounds.
		w[0], w[5], w[10], w[15] = quarterRound(w[0], w[5], w[10], w[15])
		w[1], w[6], w[11], w[12] = quarterRound(w[1], w[6], w[11], w[12])
		w[2], w[7], w[8], w[13] = quarterRound(w[2], w[7], w[8], w[13])
		w[3], w[4], w[9], w[14] = quarterRound(w[3], w[4], w[9], w[14])
	}
	for i := range w {
		binary.LittleEndian.PutUint32(out[4*i:], w[i]+x[i])
	}
}

// XORKeyStream XORs src with the keystream into dst. dst and src may overlap
// exactly or not at all; dst must be at least len(src) bytes. The keystream
// position advances by len(src).
//
//age:hotpath
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("chacha: dst shorter than src")
	}
	for len(src) > 0 {
		if c.bufUsed == blockSize {
			c.block(c.counter, &c.buf)
			c.counter++
			c.bufUsed = 0
		}
		n := subtle.XORBytes(dst, src, c.buf[c.bufUsed:])
		c.bufUsed += n
		dst, src = dst[n:], src[n:]
	}
}

// Encrypt is a convenience one-shot: it encrypts plaintext with the key and
// nonce starting at counter 1 (the RFC convention) and returns the
// ciphertext. Decryption is the same call. The cipher stays on the stack,
// so the ciphertext is the only allocation.
func Encrypt(key, nonce, plaintext []byte) ([]byte, error) {
	var c Cipher
	if err := c.Reset(key, nonce, 1); err != nil {
		return nil, err
	}
	out := make([]byte, len(plaintext))
	c.XORKeyStream(out, plaintext)
	return out, nil
}
