package scramnet

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// fuzzBankSize spans three pages, the last one partial, so accesses
// straddle two page boundaries and end short of a page's end.
const fuzzBankSize = 3*pageSize - 512

// Each FuzzBank operation is five bytes: kind, two offset bytes, two
// length bytes. The low two bits of kind select write, read, word read
// or peek; with bit 7 set the offset is taken relative to a page
// boundary (page index from the first offset byte, signed displacement
// from the second) so short accesses land across boundaries.
const (
	opWrite = iota
	opRead
	opWord
	opPeek
)

// fuzzOp encodes one FuzzBank operation for the seed corpus.
func fuzzOp(kind byte, off, n uint16) []byte {
	return []byte{kind, byte(off), byte(off >> 8), byte(n), byte(n >> 8)}
}

// FuzzBank applies a sequence of writes and reads at arbitrary offsets
// and lengths to a page-sparse bank and checks every read, and a final
// read of the whole bank, against a dense reference.
func FuzzBank(f *testing.F) {
	last := uint16(fuzzBankSize - 4)
	f.Add([]byte{})
	f.Add(append(fuzzOp(opWrite, last, 4), fuzzOp(opWord, last, 0)...))
	f.Add(append(fuzzOp(opWord, last, 0), fuzzOp(opPeek, 0, fuzzBankSize)...))
	f.Add(append(fuzzOp(opWrite, pageSize-2, 4), fuzzOp(opWord, pageSize-2, 0)...))
	f.Add(append(fuzzOp(opWrite, 0, fuzzBankSize), fuzzOp(opRead, pageSize-1, pageSize+2)...))
	f.Add(append(fuzzOp(0x80|opWrite, 0xfe02, 9), fuzzOp(0x80|opWord, 0xff02, 0)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := bank{size: fuzzBankSize}
		ref := make([]byte, fuzzBankSize)
		var fill byte
		for ; len(ops) >= 5; ops = ops[5:] {
			kind := ops[0]
			off := int(binary.LittleEndian.Uint16(ops[1:])) % fuzzBankSize
			if kind&0x80 != 0 {
				off = int(ops[1])%4*pageSize + int(int8(ops[2]))
			}
			n := int(binary.LittleEndian.Uint16(ops[3:]))
			if kind&3 == opWord {
				n = 4
			}
			off = min(max(off, 0), fuzzBankSize-min(n, fuzzBankSize))
			n = min(n, fuzzBankSize-off)
			switch kind & 3 {
			case opWrite:
				data := make([]byte, n)
				for i := range data {
					fill++
					data[i] = fill
				}
				b.write(off, data)
				copy(ref[off:], data)
			case opRead:
				got := make([]byte, n)
				for i := range got {
					got[i] = 0xa5 // read must overwrite stale destination bytes
				}
				b.read(off, got)
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("read [%d,%d) = %x, want %x", off, off+n, got, ref[off:off+n])
				}
			case opWord:
				if got, want := b.word(off), binary.LittleEndian.Uint32(ref[off:]); got != want {
					t.Fatalf("word at %d = %#x, want %#x", off, got, want)
				}
			case opPeek:
				if got := b.peek(off, n); !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("peek [%d,%d) = %x, want %x", off, off+n, got, ref[off:off+n])
				}
			}
		}
		if got := b.peek(0, fuzzBankSize); !bytes.Equal(got, ref) {
			t.Fatal("final bank differs from the dense reference")
		}
	})
}

// TestNewMaxRingHeap checks that building a full 256-node ring with the
// default 2 MiB banks costs host memory for the cards, not for their
// banks: a dense bank per card would add 512 MiB.
func TestNewMaxRingHeap(t *testing.T) {
	k := sim.NewKernel()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := New(k, DefaultConfig(MaxNodes))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("New(%d nodes) added %d bytes of heap", MaxNodes, delta)
	if delta > 1<<20 {
		t.Fatalf("New(%d nodes) added %d bytes of heap, want at most 1 MiB", MaxNodes, delta)
	}
	if got := n.NIC(MaxNodes - 1).Size(); got != DefaultConfig(MaxNodes).MemBytes {
		t.Fatalf("Size() = %d, want MemBytes", got)
	}
}

// TestBankMaterializesOnlyWrittenPages checks that a replicated write
// allocates the written page at every card and nothing else, and that
// untouched memory still reads as zeros through the modeled read paths.
func TestBankMaterializesOnlyWrittenPages(t *testing.T) {
	k, n := newNet(t, 4)
	k.Spawn("writer", func(p *sim.Proc) {
		n.NIC(1).Write(p, 3*pageSize-2, []byte{1, 2, 3, 4}) // straddles pages 2 and 3
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		nic := n.NIC(i)
		var live []int
		for pg, p := range nic.mem.pages {
			if p != nil {
				live = append(live, pg)
			}
		}
		if len(live) != 2 || live[0] != 2 || live[1] != 3 {
			t.Errorf("node %d materialized pages %v, want [2 3]", i, live)
		}
		if got := nic.Peek(3*pageSize-4, 8); !bytes.Equal(got, []byte{0, 0, 1, 2, 3, 4, 0, 0}) {
			t.Errorf("node %d straddling peek = %x", i, got)
		}
	}
	k.Spawn("reader", func(p *sim.Proc) {
		nic := n.NIC(2)
		if w := nic.ReadWord(p, 0); w != 0 {
			t.Errorf("untouched word = %#x, want 0", w)
		}
		buf := []byte{9, 9, 9, 9}
		nic.Read(p, nic.Size()-4, buf)
		if !bytes.Equal(buf, make([]byte, 4)) {
			t.Errorf("untouched last word = %x, want zeros", buf)
		}
		if w := nic.ReadWord(p, 3*pageSize-2); w != 0x04030201 {
			t.Errorf("straddling word = %#x, want 0x04030201", w)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
