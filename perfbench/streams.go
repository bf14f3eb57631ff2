package main

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
)

// seqBytes is the sequence stamp at the head of every generated SDU: the
// receiver reads it back to regenerate the bytes it must have got.
const seqBytes = 8

// streamInput is the seeded description of one SDU stream: the byte pool
// its payloads are cut from, its size sequence and, for open-loop streams,
// its arrival times. It is pure data so the inputs can be compared byte for
// byte across runs.
type streamInput struct {
	Name     string
	Pool     []byte
	Sizes    []int      // size of SDU seq is Sizes[seq % len(Sizes)]
	Arrivals []sim.Time // open-loop send times; nil for closed-loop streams
	Window   int        // closed-loop SDUs outstanding; 0 for open-loop
}

func (in *streamInput) size(seq uint64) int { return in.Sizes[seq%uint64(len(in.Sizes))] }

// offset picks where in the pool SDU seq's body starts.
func (in *streamInput) offset(seq uint64) int {
	span := uint64(len(in.Pool) - maxSDU)
	return int((seq * 0x9e3779b97f4a7c15 >> 17) % span)
}

// fill writes SDU seq into buf (which must hold size(seq) bytes).
func (in *streamInput) fill(buf []byte, seq uint64) []byte {
	n := in.size(seq)
	buf = buf[:n]
	binary.LittleEndian.PutUint64(buf, seq)
	off := in.offset(seq)
	copy(buf[seqBytes:], in.Pool[off:off+n-seqBytes])
	return buf
}

// matches reports whether sdu is exactly SDU seq of this stream.
func (in *streamInput) matches(sdu []byte, seq uint64) bool {
	if len(sdu) != in.size(seq) {
		return false
	}
	off := in.offset(seq)
	return bytes.Equal(sdu[seqBytes:], in.Pool[off:off+len(sdu)-seqBytes])
}

// stream is one SDU flow of a built network. The source side (sent) is
// touched only by the source endpoint's kernel and the receive side only
// by the destination's, so a partitioned run needs no locking.
type stream struct {
	in    *streamInput
	idx   int
	src   *core.Endpoint
	vc    atm.VC
	k     *sim.Kernel
	until sim.Time
	tr    *tracer // source partition's tracer; nil when untraced

	sent uint64

	delivered, failed uint64
	rxHash            uint64
}

// send hands SDU seq to the source endpoint through the traced door.
func (s *stream) send(buf []byte, seq uint64, onSent func()) {
	sdu := s.in.fill(buf, seq)
	if s.tr != nil {
		s.tr.begin(doorSend)
	}
	err := s.src.Send(s.vc, sdu, onSent)
	if s.tr != nil {
		s.tr.end(uint64(s.idx)<<32 | seq&0xffffffff)
	}
	if err != nil {
		panic("perfbench: send on " + s.in.Name + ": " + err.Error())
	}
	s.sent++
}

// startClosed launches Window chained senders: each re-sends from its own
// buffer when the host may reuse it, until the horizon.
func (s *stream) startClosed() {
	for w := 0; w < s.in.Window; w++ {
		buf := make([]byte, maxSDU)
		var next func()
		next = func() {
			if s.k.Now() >= s.until {
				return
			}
			s.send(buf, s.sent, next)
		}
		next()
	}
}

// startOpen schedules the seeded open-loop arrivals: one pending event at a
// time, buffers recycled through a free list once the host releases them.
func (s *stream) startOpen() {
	type sendBuf struct {
		b       []byte
		release func()
	}
	var free []*sendBuf
	var arrive func()
	j := 0
	arrive = func() {
		var sb *sendBuf
		if n := len(free); n > 0 {
			sb, free = free[n-1], free[:n-1]
		} else {
			sb = &sendBuf{b: make([]byte, maxSmall)}
			sb.release = func() { free = append(free, sb) }
		}
		s.send(sb.b, uint64(j), sb.release)
		j++
		if j < len(s.in.Arrivals) && s.in.Arrivals[j] < s.until {
			s.k.Post(s.in.Arrivals[j], arrive)
		}
	}
	if len(s.in.Arrivals) > 0 && s.in.Arrivals[0] < s.until {
		s.k.Post(s.in.Arrivals[0], arrive)
	}
}

// receive verifies one delivered SDU against the bytes its stamp names and
// folds it into the stream's delivery hash.
func (s *stream) receive(sdu []byte, at sim.Time) {
	if len(sdu) < seqBytes {
		s.failed++
		return
	}
	seq := binary.LittleEndian.Uint64(sdu)
	if seq >= 1<<32 || !s.in.matches(sdu, seq) {
		s.failed++
		return
	}
	s.delivered++
	s.rxHash = mix(mix(mix(s.rxHash, seq), uint64(at)), uint64(len(sdu)))
}

// mix folds v into the running hash h (a multiply-xorshift step; order
// sensitive, so it hashes sequences).
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	hi, lo := bits.Mul64(h, 0xff51afd7ed558ccd)
	return hi ^ lo
}

// receiver routes an endpoint's deliveries to streams by VC; an SDU on a VC
// no stream owns is a failure.
type receiver struct {
	byVC    map[atm.VC]*stream
	strayed uint64
	tr      *tracer
}

func (r *receiver) deliver(p core.Packet) {
	if r.tr != nil {
		r.tr.begin(doorRecv)
	}
	s := r.byVC[p.VC]
	if s == nil {
		r.strayed++
	} else {
		s.receive(p.Data, p.At)
	}
	if r.tr != nil {
		var id uint64
		if s != nil && len(p.Data) >= seqBytes {
			id = uint64(s.idx)<<32 | binary.LittleEndian.Uint64(p.Data)&0xffffffff
		}
		r.tr.end(id)
	}
}
