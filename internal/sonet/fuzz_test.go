package sonet

import (
	"errors"
	"testing"

	"repro/internal/crc"
)

// maxFuzzFrames bounds the frames one fuzz input can push, so a long input
// cannot cost seconds.
const maxFuzzFrames = 8

// FuzzDeframer feeds byte streams through Deframer.PushFrame into a
// Delineator at STS-3c or STS-12c. With onLine unset the stream is cut into
// frame-sized chunks and pushed as is, a short tail included. With onLine
// set it is an error pattern XORed onto a real framer's output, one frame
// per FrameBytes of pattern plus one, so mutations land as line bit errors
// on a stream that delineation can lock onto. Nothing may panic, only a
// short frame may be refused, and every cell the delineator emits is 53
// bytes whose header carries a valid HEC (a corrected header is emitted
// corrected), matching the delineator's own counts. A clean line emits
// cells and corrects none.
func FuzzDeframer(f *testing.F) {
	f.Add(false, true, []byte{})
	f.Add(true, true, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40})
	f.Add(false, false, []byte{byteA1, byteA1, byteA1, byteA2, byteA2, byteA2})
	f.Fuzz(func(t *testing.T, sts12, onLine bool, stream []byte) {
		rate := STS3c
		if sts12 {
			rate = STS12c
		}
		g := Geom(rate)
		clean := true
		for _, b := range stream {
			clean = clean && b == 0
		}
		var frames [][]byte
		if onLine {
			n := min(1+len(stream)/g.FrameBytes, maxFuzzFrames)
			fr := NewFramer(rate, &seqSource{})
			for i := 0; i < n; i++ {
				frame := make([]byte, g.FrameBytes)
				fr.NextFrame(frame)
				for j := range frame {
					if k := i*g.FrameBytes + j; k < len(stream) {
						frame[j] ^= stream[k]
					}
				}
				frames = append(frames, frame)
			}
		} else {
			for len(stream) > 0 && len(frames) < maxFuzzFrames {
				n := min(len(stream), g.FrameBytes)
				frames = append(frames, stream[:n])
				stream = stream[n:]
			}
		}

		var cells, corrected uint64
		del := NewDelineator(func(cell []byte, fixed bool) {
			if len(cell) != 53 || !crc.HECOK(cell) {
				t.Fatalf("delineator emitted a %d-byte cell with header % x (corrected %v)", len(cell), cell[:min(len(cell), 5)], fixed)
			}
			cells++
			if fixed {
				corrected++
			}
		})
		df := NewDeframer(rate, del)
		var full uint64
		for _, frame := range frames {
			err := df.PushFrame(frame)
			if len(frame) < g.FrameBytes {
				if !errors.Is(err, ErrShortFrame) {
					t.Fatalf("%d-byte frame gave %v, want ErrShortFrame", len(frame), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("full frame refused: %v", err)
			}
			full++
		}
		if s := df.Stats(); s.Frames != full {
			t.Fatalf("deframer counted %d frames, %d pushed", s.Frames, full)
		}
		if s := del.Stats(); s.Cells != cells || s.HeaderCorrected != corrected {
			t.Fatalf("delineator counted %d cells (%d corrected), sink saw %d (%d)",
				s.Cells, s.HeaderCorrected, cells, corrected)
		}
		if onLine && clean && (cells == 0 || corrected != 0) {
			t.Fatalf("clean line: %d cells emitted, %d corrected", cells, corrected)
		}
	})
}
