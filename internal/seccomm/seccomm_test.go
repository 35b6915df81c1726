package seccomm

import (
	"bytes"
	"crypto/aes"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func chachaKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i)
	}
	return k
}

func aesKey() []byte {
	k := make([]byte, 16)
	for i := range k {
		k[i] = byte(0xA0 + i)
	}
	return k
}

func TestNewSealerKeyValidation(t *testing.T) {
	if _, err := NewSealer(ChaCha20Stream, make([]byte, 16)); err == nil {
		t.Error("short chacha key accepted")
	}
	if _, err := NewSealer(AES128Block, make([]byte, 32)); err == nil {
		t.Error("long aes key accepted")
	}
	if _, err := NewSealer(CipherKind(99), chachaKey()); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, kind := range []CipherKind{ChaCha20Stream, AES128Block, ChaCha20Poly1305} {
		key := chachaKey()
		if kind == AES128Block {
			key = aesKey()
		}
		sealer, err := NewSealer(kind, key)
		if err != nil {
			t.Fatal(err)
		}
		opener, err := NewSealer(kind, key)
		if err != nil {
			t.Fatal(err)
		}
		prop := func(msg []byte) bool {
			sealed, err := sealer.Seal(msg)
			if err != nil {
				return false
			}
			got, err := opener.Open(sealed)
			if err != nil {
				return false
			}
			return bytes.Equal(got, msg)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestWireSizePrediction(t *testing.T) {
	for _, kind := range []CipherKind{ChaCha20Stream, AES128Block, ChaCha20Poly1305} {
		key := chachaKey()
		if kind == AES128Block {
			key = aesKey()
		}
		sealer, _ := NewSealer(kind, key)
		for _, n := range []int{0, 1, 15, 16, 17, 255, 1000} {
			sealed, err := sealer.Seal(make([]byte, n))
			if err != nil {
				t.Fatal(err)
			}
			if len(sealed) != sealer.WireSize(n) {
				t.Errorf("%v n=%d: wire %d, predicted %d", kind, n, len(sealed), sealer.WireSize(n))
			}
		}
	}
}

func TestStreamCipherPreservesLengthExactly(t *testing.T) {
	// The side-channel's root cause.
	s, _ := NewSealer(ChaCha20Stream, chachaKey())
	a, _ := s.Seal(make([]byte, 100))
	b, _ := s.Seal(make([]byte, 101))
	if len(b)-len(a) != 1 {
		t.Errorf("stream cipher does not preserve byte granularity: %d vs %d", len(a), len(b))
	}
}

func TestBlockCipherRoundsToBlocks(t *testing.T) {
	s, _ := NewSealer(AES128Block, aesKey())
	a, _ := s.Seal(make([]byte, 1))
	b, _ := s.Seal(make([]byte, 15))
	if len(a) != len(b) {
		t.Errorf("1B and 15B payloads should share a block count: %d vs %d", len(a), len(b))
	}
	c, _ := s.Seal(make([]byte, 16))
	if len(c) != len(a)+aes.BlockSize {
		t.Errorf("16B payload should need one more block")
	}
}

func TestNoncesAdvance(t *testing.T) {
	// Sealing the same plaintext twice must give different ciphertexts.
	for _, kind := range []CipherKind{ChaCha20Stream, AES128Block, ChaCha20Poly1305} {
		key := chachaKey()
		if kind == AES128Block {
			key = aesKey()
		}
		s, _ := NewSealer(kind, key)
		a, _ := s.Seal([]byte("hello sensor"))
		b, _ := s.Seal([]byte("hello sensor"))
		if bytes.Equal(a, b) {
			t.Errorf("%v: nonce reuse across messages", kind)
		}
	}
}

// Regression: two sealers built with the same key (the fleet shape when a
// sensor is re-created or redials after a fault) must never repeat a
// (key, nonce) pair. Before the instance-prefix fix both counters restarted
// at zero and this test failed with identical nonces on the first message.
func TestSealersWithSameKeyNeverRepeatNonces(t *testing.T) {
	const perSealer = 64
	for _, kind := range []CipherKind{ChaCha20Stream, AES128Block, ChaCha20Poly1305} {
		key := chachaKey()
		nonceLen := 12 // chacha-family nonce
		if kind == AES128Block {
			key = aesKey()
			nonceLen = aes.BlockSize // CBC IV
		}
		seen := make(map[string]int)
		for inst := 0; inst < 3; inst++ {
			s, err := NewSealer(kind, key)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perSealer; i++ {
				sealed, err := s.Seal([]byte("same plaintext every time"))
				if err != nil {
					t.Fatal(err)
				}
				nonce := string(sealed[:nonceLen])
				if prev, dup := seen[nonce]; dup {
					t.Fatalf("%v: sealer %d repeated nonce %x first used by sealer %d",
						kind, inst, nonce, prev)
				}
				seen[nonce] = inst
			}
		}
	}
}

// The keystream-reuse consequence, stated directly: with a stream cipher,
// reused nonces XOR two ciphertexts into the XOR of the plaintexts. With
// distinct nonces the ciphertext bodies of the same plaintext under two
// same-key sealers must differ.
func TestSameKeySealersProduceDistinctCiphertexts(t *testing.T) {
	key := chachaKey()
	s1, _ := NewSealer(ChaCha20Stream, key)
	s2, _ := NewSealer(ChaCha20Stream, key)
	msg := []byte("secret sensor batch payload")
	a, _ := s1.Seal(msg)
	b, _ := s2.Seal(msg)
	if bytes.Equal(a[12:], b[12:]) {
		t.Fatal("same-key sealers reused a keystream for their first message")
	}
	// Cross-opening still works: the nonce travels in the message.
	opener, _ := NewSealer(ChaCha20Stream, key)
	for _, sealed := range [][]byte{a, b} {
		got, err := opener.Open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("instance-prefixed message did not open")
		}
	}
}

func TestOpenRejectsMalformed(t *testing.T) {
	c, _ := NewSealer(ChaCha20Stream, chachaKey())
	if _, err := c.Open([]byte{1, 2, 3}); err == nil {
		t.Error("short chacha message accepted")
	}
	a, _ := NewSealer(AES128Block, aesKey())
	if _, err := a.Open(make([]byte, 17)); err == nil {
		t.Error("non-block-aligned aes message accepted")
	}
	if _, err := a.Open(make([]byte, 16)); err == nil {
		t.Error("iv-only aes message accepted")
	}
	// Corrupt padding: decrypt garbage blocks.
	if _, err := a.Open(make([]byte, 48)); err == nil {
		t.Log("note: random padding happened to validate (1/256 chance); acceptable")
	}
}

func TestAEADSealerAuthenticates(t *testing.T) {
	s, err := NewSealer(ChaCha20Poly1305, chachaKey())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := s.Seal([]byte("sensor batch"))
	if err != nil {
		t.Fatal(err)
	}
	sealed[len(sealed)-1] ^= 1
	if _, err := s.Open(sealed); err == nil {
		t.Error("tampered AEAD message accepted")
	}
	if _, err := s.Open(sealed[:10]); err == nil {
		t.Error("truncated AEAD message accepted")
	}
	// The AEAD adds a *constant* overhead, so fixed-size AGE payloads
	// still produce fixed-size wire messages.
	a, _ := s.Seal(make([]byte, 100))
	b, _ := s.Seal(make([]byte, 100))
	if len(a) != len(b) {
		t.Errorf("AEAD wire sizes differ for equal payloads: %d vs %d", len(a), len(b))
	}
}

func TestRoundTargetToCipher(t *testing.T) {
	if got := RoundTargetToCipher(100, ChaCha20Stream); got != 100 {
		t.Errorf("stream target changed: %d", got)
	}
	// 100 -> ceil(101/16)=7 blocks -> 7*16-1 = 111 payload bytes.
	if got := RoundTargetToCipher(100, AES128Block); got != 111 {
		t.Errorf("block target = %d, want 111", got)
	}
	// The rounded target fills blocks exactly.
	s, _ := NewSealer(AES128Block, aesKey())
	target := RoundTargetToCipher(100, AES128Block)
	if w := s.WireSize(target); w != 16+112 {
		t.Errorf("wire size %d for rounded target", w)
	}
	if got := RoundTargetToCipher(0, AES128Block); got != 15 {
		t.Errorf("degenerate target = %d, want 15", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	msgs := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, m := range msgs {
		var err error
		if wire, err = AppendFrame(wire, m); err != nil {
			t.Fatal(err)
		}
	}
	buf := bytes.NewReader(wire)
	for _, want := range msgs {
		got, err := ReadFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %x, want %x", got, want)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	if _, err := AppendFrame(nil, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 5, 1, 2})); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func BenchmarkSealChaCha(b *testing.B) {
	s, _ := NewSealer(ChaCha20Stream, chachaKey())
	msg := make([]byte, 640)
	b.SetBytes(640)
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealAES(b *testing.B) {
	s, _ := NewSealer(AES128Block, aesKey())
	msg := make([]byte, 640)
	b.SetBytes(640)
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAESOpenUniformError(t *testing.T) {
	s, err := NewSealer(AES128Block, aesKey())
	if err != nil {
		t.Fatal(err)
	}
	// Structural failures (bad length) must return the same error as
	// padding failures: a distinguishable error is a padding oracle.
	structural := map[string][]byte{
		"empty":       nil,
		"iv only":     make([]byte, 16),
		"not aligned": make([]byte, 17),
	}
	for name, msg := range structural {
		if _, err := s.Open(msg); !errors.Is(err, errAESMalformed) {
			t.Errorf("%s: err = %v, want the uniform malformed error", name, err)
		}
	}
	sealed, err := s.Seal([]byte("ten bytes!"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting the final ciphertext block garbles the decrypted padding.
	// Every corruption that fails must fail with the same uniform error.
	failures := 0
	for delta := 1; delta < 256; delta++ {
		tampered := append([]byte(nil), sealed...)
		tampered[len(tampered)-1] ^= byte(delta)
		if _, err := s.Open(tampered); err != nil {
			failures++
			if !errors.Is(err, errAESMalformed) {
				t.Fatalf("delta %d: err = %v, want the uniform malformed error", delta, err)
			}
		}
	}
	if failures == 0 {
		t.Error("no ciphertext corruption produced an error")
	}
}

func TestReadFullDeadlineExpiry(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	buf := make([]byte, 4)
	var nerr net.Error
	if err := ReadFullDeadline(server, buf, 30*time.Millisecond); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	_ = client
}

// FuzzOpen runs every cipher kind's Open on arbitrary bytes, which must
// never panic, and on a sealed copy of the same bytes, which must open back
// to them. The AEAD must also reject the sealed message with any one bit
// flipped, nonce and tag included.
func FuzzOpen(f *testing.F) {
	f.Add(byte(0), []byte("sensor batch"), uint16(0))
	f.Add(byte(1), make([]byte, 48), uint16(0x0310))
	f.Add(byte(2), []byte{}, uint16(0x0700))
	f.Add(byte(2), make([]byte, 40), uint16(0x0505))
	f.Fuzz(func(t *testing.T, k byte, msg []byte, flip uint16) {
		kind := CipherKind(k % 3)
		key := chachaKey()
		if kind == AES128Block {
			key = aesKey()
		}
		sealer, err := NewSealer(kind, key)
		if err != nil {
			t.Fatal(err)
		}
		opener, err := NewSealer(kind, key)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = opener.Open(msg)
		sealed, err := sealer.Seal(msg)
		if err != nil {
			t.Fatalf("%v: seal %d bytes: %v", kind, len(msg), err)
		}
		if got, err := opener.Open(sealed); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("%v: Open(Seal(%x)) = %x, %v", kind, msg, got, err)
		}
		if kind != ChaCha20Poly1305 {
			return
		}
		i := int(flip) % len(sealed)
		sealed[i] ^= 1 << ((flip >> 8) % 8)
		if got, err := opener.Open(sealed); err == nil {
			t.Fatalf("AEAD opened a message with byte %d flipped: %x", i, got)
		}
	})
}
