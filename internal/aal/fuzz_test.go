package aal

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/crc"
)

// cellScript decodes a fuzz input into a cell sequence for one adaptation
// layer. Each step starts with an op byte:
//
//   - op < 0x80: one raw cell, its 48 payload bytes taken from the input.
//     AAL5 uses op's low three bits as the PT. AAL3/4 overwrites the SAR
//     header with segment type op&3, sequence number op>>2&15 and the
//     MID in the next byte, and fills in a valid CRC-10 unless op&0x40 is
//     set, so damaged, out-of-sequence and interleaved cells all reach
//     the reassembler's logic rather than its CRC check;
//   - op >= 0x80: one well-formed frame from the real segmenter, its
//     length (op&0x3f)<<6 + the next byte + 1 and its bytes drawn from the
//     rest of the input, under the MID in the byte after; with op&0x40
//     set, the cell at index (the third byte) mod the cell count is lost.
//
// A script ends after maxScriptCells cells, so that a short input of frame
// ops cannot cost seconds.
type cellScript struct {
	t     Type
	data  []byte
	seg   Segmenter
	drop  int // cell index of the current frame to lose; -1 none
	idx   int
	cells int
}

const maxScriptCells = 4096

type scriptCell struct {
	payload [atm.PayloadSize]byte
	pt      atm.PT
}

func (s *cellScript) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// cell returns the next cell, or false when the script is exhausted.
func (s *cellScript) cell() (scriptCell, bool) {
	var c scriptCell
	if s.cells++; s.cells > maxScriptCells {
		return c, false
	}
	for {
		if s.seg != nil {
			pt, done, err := s.seg.Next(&c.payload)
			if err != nil {
				panic(err)
			}
			if done {
				s.seg = nil
			}
			i := s.idx
			s.idx++
			if i == s.drop {
				continue
			}
			c.pt = pt
			return c, true
		}
		if len(s.data) == 0 {
			return c, false
		}
		op := s.next()
		if op < 0x80 {
			copy(c.payload[:], s.data)
			s.data = s.data[min(len(s.data), atm.PayloadSize):]
			if s.t == AAL5 {
				c.pt = atm.PT(op & 7)
				return c, true
			}
			mid := s.next()
			c.payload[0] = (op&3)<<6 | (op>>2&0xf)<<2 | mid&3
			c.payload[1] = mid
			if op&0x40 == 0 {
				crc.CRC10Fill(c.payload[:])
			}
			c.pt = atm.PTUser0
			return c, true
		}
		n := int(op&0x3f)<<6 + int(s.next()) + 1
		mid, lost := s.next(), s.next()
		sdu := make([]byte, n)
		for i := range sdu {
			sdu[i] = byte(i)
			if len(s.data) > 0 {
				sdu[i] = s.data[i%len(s.data)]
			}
		}
		seg := NewSegmenter(s.t)
		if s34, ok := seg.(*Segmenter34); ok {
			s34.MID = uint16(mid) & 0x3ff
		}
		cells, err := seg.Begin(sdu)
		if err != nil {
			panic(err)
		}
		s.seg, s.idx, s.drop = seg, 0, -1
		if op&0x40 != 0 {
			s.drop = int(lost) % cells
		}
	}
}

// sameOutcome fails unless two pushes returned the same SDU, cell count
// and error.
func sameOutcome(t *testing.T, step int, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("cell %d: error %v, reference %v", step, gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("cell %d: result %v, reference %v", step, got, want)
	}
	if got != nil && (got.Cells != want.Cells || !bytes.Equal(got.SDU, want.SDU)) {
		t.Fatalf("cell %d: %d-byte SDU over %d cells, reference %d bytes over %d",
			step, len(got.SDU), got.Cells, len(want.SDU), want.Cells)
	}
}

func fuzzSeeds(f *testing.F) {
	f.Add(uint16(0), []byte{0x80, 99, 0, 0, 'h', 'i'})
	f.Add(uint16(200), []byte{0xc1, 0, 7, 2, 0x80, 10, 7, 0})
	f.Add(uint16(96), []byte{0x00, 1, 2, 3, 0x01, 4, 5, 6, 0x42, 9})
}

// FuzzReassembler5 feeds arbitrary AAL5 cell sequences to a reassembler
// whose buffer grows on demand and to a reference with the whole frame
// buffer preallocated: they must agree on every SDU and error, and the
// growing buffer must never hold more than maxFrame plus the one cell that
// reveals an overrun.
func FuzzReassembler5(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, maxFrame uint16, data []byte) {
		r := NewReassembler5(int(maxFrame))
		ref := NewReassembler5(int(maxFrame))
		ref.buf = make([]byte, 0, ref.maxFrame)
		bound := r.maxFrame + atm.PayloadSize
		s := &cellScript{t: AAL5, data: data}
		for step := 0; ; step++ {
			c, ok := s.cell()
			if !ok {
				return
			}
			res, err := r.Push(&c.payload, c.pt)
			want, wantErr := ref.Push(&c.payload, c.pt)
			sameOutcome(t, step, res, want, err, wantErr)
			if len(r.buf) > bound || cap(r.buf) > bound {
				t.Fatalf("cell %d: buffer len %d cap %d, bound %d", step, len(r.buf), cap(r.buf), bound)
			}
		}
	})
}

// FuzzReassembler34 does the same for AAL3/4, on one VC and through the
// MID demultiplexer, whose reference draws every stream from preallocated
// spares. Neither may hold more than maxFrame per stream (or one cell's
// payload, when maxFrame is smaller than that), nor keep more stream
// state than maxMIDs.
func FuzzReassembler34(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, maxFrame uint16, data []byte) {
		const maxMIDs = 4
		r := NewReassembler34(int(maxFrame))
		ref := NewReassembler34(int(maxFrame))
		ref.buf = make([]byte, 0, ref.maxFrame)
		m := NewMIDReassembler34(int(maxFrame), maxMIDs)
		mref := NewMIDReassembler34(int(maxFrame), maxMIDs)
		for i := 0; i < maxMIDs; i++ {
			spare := NewReassembler34(int(maxFrame))
			spare.buf = make([]byte, 0, spare.maxFrame)
			mref.spare = append(mref.spare, spare)
		}
		bound := max(r.maxFrame, sarPayload)
		held := func(step int, what string, ras *Reassembler34) {
			if len(ras.buf) > bound || cap(ras.buf) > bound {
				t.Fatalf("cell %d: %s buffer len %d cap %d, bound %d", step, what, len(ras.buf), cap(ras.buf), bound)
			}
		}
		s := &cellScript{t: AAL34, data: data}
		for step := 0; ; step++ {
			c, ok := s.cell()
			if !ok {
				break
			}
			res, err := r.Push(&c.payload, c.pt)
			want, wantErr := ref.Push(&c.payload, c.pt)
			sameOutcome(t, step, res, want, err, wantErr)
			held(step, "VC", r)

			mid, res, err := m.Push(&c.payload, c.pt)
			wantMID, want, wantErr := mref.Push(&c.payload, c.pt)
			if mid != wantMID {
				t.Fatalf("cell %d: MID %d, reference %d", step, mid, wantMID)
			}
			sameOutcome(t, step, res, want, err, wantErr)
			if n := len(m.streams) + len(m.spare); n > maxMIDs {
				t.Fatalf("cell %d: %d MID streams kept, limit %d", step, n, maxMIDs)
			}
			for mid, ras := range m.streams {
				held(step, fmt.Sprintf("MID %d", mid), ras)
			}
		}
		m.Abort()
		if m.ActiveMIDs() != 0 {
			t.Fatalf("%d MID slots still active after Abort", m.ActiveMIDs())
		}
	})
}
