package atm

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"
)

// FuzzCellDecode feeds arbitrary bytes to Cell.Decode under both header
// formats. Decoding never panics: a short buffer is ErrShortBuf and a
// header the HEC cannot vouch for is ErrHECFailed. A decoded cell always
// encodes again, and decoding that encoding gives the same cell with no
// correction. The re-encoded header is the received one with at most the
// one bit the HEC corrected flipped back, and the payload is untouched.
func FuzzCellDecode(f *testing.F) {
	user := make([]byte, CellSize)
	c := Cell{Header: Header{Format: UNI, GFC: 3, VPI: 17, VCI: 33, PT: PTUserEnd}}
	for i := range c.Payload {
		c.Payload[i] = byte(i * 7)
	}
	if err := c.Encode(user); err != nil {
		f.Fatal(err)
	}
	f.Add(user)
	oneBit := append([]byte(nil), user...)
	oneBit[2] ^= 0x10
	f.Add(oneBit)
	f.Add(user[:HeaderSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{UNI, NNI} {
			var c Cell
			corrected, err := c.Decode(data, format)
			if len(data) < CellSize {
				if !errors.Is(err, ErrShortBuf) {
					t.Fatalf("%v: %d-byte input gave %v, want ErrShortBuf", format, len(data), err)
				}
				continue
			}
			if err != nil {
				if !errors.Is(err, ErrHECFailed) {
					t.Fatalf("%v: unexpected decode error %v", format, err)
				}
				continue
			}
			var enc [CellSize]byte
			if err := c.Encode(enc[:]); err != nil {
				t.Fatalf("%v: decoded header %+v does not encode: %v", format, c.Header, err)
			}
			var back Cell
			again, err := back.Decode(enc[:], format)
			if err != nil || again || back != c {
				t.Fatalf("%v: round trip gave %+v (corrected %v, err %v), want %+v",
					format, back.Header, again, err, c.Header)
			}
			flipped := 0
			for i := 0; i < HeaderSize; i++ {
				flipped += bits.OnesCount8(enc[i] ^ data[i])
			}
			if want := map[bool]int{false: 0, true: 1}[corrected]; flipped != want {
				t.Fatalf("%v: re-encoded header differs from the received one in %d bits, corrected=%v",
					format, flipped, corrected)
			}
			if !bytes.Equal(enc[HeaderSize:], data[HeaderSize:CellSize]) {
				t.Fatalf("%v: payload changed in the round trip", format)
			}
		}
	})
}
