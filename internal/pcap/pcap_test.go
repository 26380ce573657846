package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
)

type packet struct {
	iface   string
	ns      int64
	comment string
	frame   []byte
}

// stream crosses two interfaces, pads frames by 3, 0 and 1 bytes, and
// has timestamps whose high word is 0, 1 and 256.
var stream = []packet{
	{"link0", 5_000_000_123, "trace=1 SYN", []byte{1, 2, 3, 4, 5}},
	{"link1", 7, "", []byte{6, 7, 8, 9}},
	{"link0", 1<<40 + 9, "x", []byte{0xAA, 0xBB, 0xCC}},
}

func capture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stream {
		if err := w.WritePacket(p.iface, p.ns, p.comment, p.frame); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

type block struct {
	typ  uint32
	body []byte
}

// parse splits a capture into blocks, checking that each block's
// leading and trailing lengths agree and are a multiple of 4.
func parse(t *testing.T, data []byte) []block {
	t.Helper()
	var out []block
	for len(data) > 0 {
		if len(data) < 12 {
			t.Fatalf("%d trailing bytes are not a block", len(data))
		}
		typ := binary.LittleEndian.Uint32(data)
		total := int(binary.LittleEndian.Uint32(data[4:]))
		if total < 12 || total%4 != 0 || total > len(data) {
			t.Fatalf("block %#x: total length %d (of %d left)", typ, total, len(data))
		}
		if tail := int(binary.LittleEndian.Uint32(data[total-4:])); tail != total {
			t.Fatalf("block %#x: leading length %d, trailing %d", typ, total, tail)
		}
		out = append(out, block{typ, data[8 : total-4]})
		data = data[total:]
	}
	return out
}

// options decodes an option list, checking each value's zero padding
// to 4 bytes and the closing opt_endofopt.
func options(t *testing.T, b []byte) map[uint16][]byte {
	t.Helper()
	opts := map[uint16][]byte{}
	for {
		if len(b) < 4 {
			t.Fatalf("option list ends without opt_endofopt: %x", b)
		}
		code, n := binary.LittleEndian.Uint16(b), int(binary.LittleEndian.Uint16(b[2:]))
		if code == optEnd {
			if n != 0 || len(b) != 4 {
				t.Fatalf("opt_endofopt length %d with %d bytes after it", n, len(b)-4)
			}
			return opts
		}
		padded := (n + 3) &^ 3
		if len(b) < 4+padded {
			t.Fatalf("option %d: %d value bytes, %d left", code, n, len(b)-4)
		}
		if pad := b[4+n : 4+padded]; !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Fatalf("option %d: non-zero padding %x", code, pad)
		}
		opts[code] = b[4 : 4+n]
		b = b[4+padded:]
	}
}

func TestCaptureParsesBack(t *testing.T) {
	blocks := parse(t, capture(t))
	want := []uint32{blockSHB, blockIDB, blockEPB, blockIDB, blockEPB, blockEPB}
	if len(blocks) != len(want) {
		t.Fatalf("%d blocks, want %d", len(blocks), len(want))
	}
	for i, b := range blocks {
		if b.typ != want[i] {
			t.Fatalf("block %d has type %#x, want %#x", i, b.typ, want[i])
		}
	}

	shb := blocks[0].body
	if len(shb) != 16 || binary.LittleEndian.Uint32(shb) != byteOrderMagic ||
		binary.LittleEndian.Uint16(shb[4:]) != 1 || binary.LittleEndian.Uint16(shb[6:]) != 0 {
		t.Fatalf("section header body %x", shb)
	}

	var ifaces []string
	pkts := 0
	for _, b := range blocks[1:] {
		switch b.typ {
		case blockIDB:
			if lt := binary.LittleEndian.Uint16(b.body); lt != linktypeUser0 {
				t.Errorf("link type %d, want %d", lt, linktypeUser0)
			}
			opts := options(t, b.body[8:])
			if res := opts[optTsresol]; !bytes.Equal(res, []byte{9}) {
				t.Errorf("if_tsresol %x, want nanoseconds", res)
			}
			ifaces = append(ifaces, string(opts[optIfName]))
		case blockEPB:
			p := stream[pkts]
			pkts++
			id := binary.LittleEndian.Uint32(b.body)
			if int(id) >= len(ifaces) || ifaces[id] != p.iface {
				t.Fatalf("packet %d names interface %d of %q, want %q", pkts, id, ifaces, p.iface)
			}
			hi, lo := binary.LittleEndian.Uint32(b.body[4:]), binary.LittleEndian.Uint32(b.body[8:])
			if got := int64(hi)<<32 | int64(lo); got != p.ns {
				t.Errorf("packet %d: timestamp words %d:%d, want %d", pkts, hi, lo, p.ns)
			}
			capLen, origLen := binary.LittleEndian.Uint32(b.body[12:]), binary.LittleEndian.Uint32(b.body[16:])
			if int(capLen) != len(p.frame) || int(origLen) != len(p.frame) {
				t.Errorf("packet %d: lengths %d/%d, want %d", pkts, capLen, origLen, len(p.frame))
			}
			padded := (len(p.frame) + 3) &^ 3
			data := b.body[20:]
			if !bytes.Equal(data[:len(p.frame)], p.frame) ||
				!bytes.Equal(data[len(p.frame):padded], make([]byte, padded-len(p.frame))) {
				t.Errorf("packet %d: frame field %x, want %x zero-padded to 4", pkts, data[:padded], p.frame)
			}
			if rest := data[padded:]; p.comment == "" {
				if len(rest) != 0 {
					t.Errorf("packet %d: %d option bytes with no comment", pkts, len(rest))
				}
			} else if got := string(options(t, rest)[optComment]); got != p.comment {
				t.Errorf("packet %d: comment %q, want %q", pkts, got, p.comment)
			}
		}
	}
	if want := []string{"link0", "link1"}; len(ifaces) != 2 || ifaces[0] != want[0] || ifaces[1] != want[1] {
		t.Errorf("interfaces %q, want %q in first-use order", ifaces, want)
	}
}

func TestCaptureIsDeterministic(t *testing.T) {
	if a, b := capture(t), capture(t); !bytes.Equal(a, b) {
		t.Fatal("two captures of the same stream differ")
	}
}
