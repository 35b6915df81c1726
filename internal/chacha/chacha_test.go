package chacha

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuarterRoundVector checks the RFC 7539 §2.1.1 quarter-round test vector.
func TestQuarterRoundVector(t *testing.T) {
	a, b, c, d := quarterRound(0x11111111, 0x01020304, 0x9b8d6f43, 0x01234567)
	if a != 0xea2a92f4 || b != 0xcb1cf8ce || c != 0x4581472e || d != 0x5881c4bb {
		t.Errorf("quarterRound = %08x %08x %08x %08x", a, b, c, d)
	}
}

// TestBlockVector checks the RFC 7539 §2.3.2 block function test vector.
func TestBlockVector(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce := mustHex(t, "000000090000004a00000000")
	c, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out [64]byte
	c.block(1, &out)
	want := mustHex(t, "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"+
		"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	if !bytes.Equal(out[:], want) {
		t.Errorf("block = %x\nwant  %x", out, want)
	}
}

// TestEncryptVector checks the RFC 7539 §2.4.2 encryption test vector.
func TestEncryptVector(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce := mustHex(t, "000000000000004a00000000")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you " +
		"only one tip for the future, sunscreen would be it.")
	want := mustHex(t, "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"+
		"f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"+
		"07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"+
		"5af90bbf74a35be6b40b8eedf2785e42874d")
	got, err := Encrypt(key, nonce, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ciphertext = %x\nwant         %x", got, want)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	for i := range nonce {
		nonce[i] = byte(i * 13)
	}
	prop := func(msg []byte) bool {
		ct, err := Encrypt(key, nonce, msg)
		if err != nil {
			return false
		}
		pt, err := Encrypt(key, nonce, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCiphertextLengthEqualsPlaintext(t *testing.T) {
	// The property that creates the paper's side-channel: a stream cipher
	// preserves the plaintext length byte-for-byte.
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	for _, n := range []int{0, 1, 63, 64, 65, 500, 3138} {
		ct, err := Encrypt(key, nonce, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != n {
			t.Errorf("len(ct) = %d, want %d", len(ct), n)
		}
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	key[0], nonce[0] = 1, 2
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i)
	}
	whole, err := Encrypt(key, nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	pieced := make([]byte, len(msg))
	for _, cut := range [][2]int{{0, 1}, {1, 100}, {100, 163}, {163, 300}} {
		c.XORKeyStream(pieced[cut[0]:cut[1]], msg[cut[0]:cut[1]])
	}
	if !bytes.Equal(whole, pieced) {
		t.Error("incremental keystream differs from one-shot")
	}
}

func TestBadKeyNonceSizes(t *testing.T) {
	if _, err := New(make([]byte, 16), make([]byte, NonceSize), 0); err == nil {
		t.Error("short key accepted")
	}
	if _, err := New(make([]byte, KeySize), make([]byte, 8), 0); err == nil {
		t.Error("short nonce accepted")
	}
}

func TestDistinctNoncesDistinctStreams(t *testing.T) {
	key := make([]byte, KeySize)
	n1 := make([]byte, NonceSize)
	n2 := make([]byte, NonceSize)
	n2[11] = 1
	zero := make([]byte, 64)
	c1, _ := Encrypt(key, n1, zero)
	c2, _ := Encrypt(key, n2, zero)
	if bytes.Equal(c1, c2) {
		t.Error("different nonces produced identical keystreams")
	}
}

func TestKeystreamCounterAdvances(t *testing.T) {
	// Two consecutive 64-byte blocks must differ (counter increments).
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	c, _ := New(key, nonce, 0)
	out := make([]byte, 128)
	c.XORKeyStream(out, make([]byte, 128))
	if bytes.Equal(out[:64], out[64:]) {
		t.Error("blocks 0 and 1 identical")
	}
	_ = binary.LittleEndian // keep import symmetry with implementation
}

func BenchmarkXORKeyStream1K(b *testing.B) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	c, _ := New(key, nonce, 1)
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.XORKeyStream(buf, buf)
	}
}

// xorByteLoop is the byte-at-a-time keystream XOR, the reference for
// XORKeyStream's span-at-a-time loop.
func xorByteLoop(c *Cipher, dst, src []byte) {
	for i := range src {
		if c.bufUsed == blockSize {
			c.block(c.counter, &c.buf)
			c.counter++
			c.bufUsed = 0
		}
		dst[i] = src[i] ^ c.buf[c.bufUsed]
		c.bufUsed++
	}
}

// TestXORKeyStreamMatchesByteLoop cuts a 200-byte message into two or
// three calls at every pair of cut points, so calls start at every offset
// within a block, and compares each result with the byte loop.
func TestXORKeyStreamMatchesByteLoop(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	key[5], nonce[2] = 7, 3
	const n = 200
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*37 + 11)
	}
	ref, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	xorByteLoop(ref, want, msg)
	got := make([]byte, n)
	var c Cipher
	for i := 0; i <= n; i++ {
		for j := i; j <= n; j++ {
			if err := c.Reset(key, nonce, 1); err != nil {
				t.Fatal(err)
			}
			clear(got)
			c.XORKeyStream(got[:i], msg[:i])
			c.XORKeyStream(got[i:j], msg[i:j])
			c.XORKeyStream(got[j:], msg[j:])
			if !bytes.Equal(got, want) {
				t.Fatalf("cuts at %d and %d: keystream differs from the byte loop", i, j)
			}
			if c.counter != ref.counter || c.bufUsed != ref.bufUsed {
				t.Fatalf("cuts at %d and %d: counter %d, used %d; byte loop %d, %d",
					i, j, c.counter, c.bufUsed, ref.counter, ref.bufUsed)
			}
		}
	}
	// In place, as Encrypt's callers may decrypt.
	if err := c.Reset(key, nonce, 1); err != nil {
		t.Fatal(err)
	}
	copy(got, msg)
	c.XORKeyStream(got[:77], got[:77])
	c.XORKeyStream(got[77:], got[77:])
	if !bytes.Equal(got, want) {
		t.Error("in-place keystream differs from the byte loop")
	}
}

func TestXORKeyStreamAllocationFree(t *testing.T) {
	c, err := New(make([]byte, KeySize), make([]byte, NonceSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if n := testing.AllocsPerRun(100, func() { c.XORKeyStream(buf, buf) }); n != 0 {
		t.Errorf("XORKeyStream allocs/op = %v, want 0", n)
	}
}

// TestResetMatchesNew pins Reset as New's replacement: a cipher reset
// mid-stream to a fresh key, nonce and counter produces exactly the
// keystream a new cipher with those parameters does.
func TestResetMatchesNew(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	key[3], nonce[7] = 9, 4
	c, err := New(make([]byte, KeySize), make([]byte, NonceSize), 5)
	if err != nil {
		t.Fatal(err)
	}
	c.XORKeyStream(make([]byte, 37), make([]byte, 37)) // leave keystream buffered
	if err := c.Reset(key, nonce, 1); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, want := make([]byte, 150), make([]byte, 150)
	c.XORKeyStream(got, got)
	fresh.XORKeyStream(want, want)
	if !bytes.Equal(got, want) {
		t.Error("reset cipher's keystream differs from a new cipher's")
	}
	if err := c.Reset(key[:16], nonce, 1); err == nil {
		t.Error("Reset accepted a short key")
	}
	if err := c.Reset(key, nonce[:8], 1); err == nil {
		t.Error("Reset accepted a short nonce")
	}
}

// TestEncryptAllocsOnlyCiphertext pins the one-shot's cost: the cipher
// stays on the stack, so the ciphertext is the only allocation.
func TestEncryptAllocsOnlyCiphertext(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	msg := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Encrypt(key, nonce, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Encrypt allocs = %v, want exactly 1", allocs)
	}
}

func BenchmarkEncrypt64(b *testing.B) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	msg := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(key, nonce, msg); err != nil {
			b.Fatal(err)
		}
	}
}
