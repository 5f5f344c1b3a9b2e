package scramnet

import "encoding/binary"

// pageSize is the granularity at which a bank materializes host memory.
const pageSize = 4096

// bank is one card's replica of the shared memory, held page-sparse: a
// page is allocated on its first write and a never-written page reads
// as zeros, which is exactly what a freshly cleared bank holds. The
// page table itself is allocated on the first write too, so an idle
// card costs no bank memory at all. Replicas therefore compare
// byte-identical through reads whether or not a given page was ever
// materialized at a given card. Accesses may straddle page boundaries;
// range checking is the caller's (NIC.checkRange).
type bank struct {
	size  int // bytes, Config.MemBytes
	pages []*[pageSize]byte
}

// page returns the page holding byte off, or nil if it was never written.
func (b *bank) page(off int) *[pageSize]byte {
	if i := off / pageSize; i < len(b.pages) {
		return b.pages[i]
	}
	return nil
}

// write copies data into the bank at off, materializing pages on demand.
func (b *bank) write(off int, data []byte) {
	if b.pages == nil {
		b.pages = make([]*[pageSize]byte, (b.size+pageSize-1)/pageSize)
	}
	for len(data) > 0 {
		pg := b.pages[off/pageSize]
		if pg == nil {
			pg = new([pageSize]byte)
			b.pages[off/pageSize] = pg
		}
		n := copy(pg[off%pageSize:], data)
		off += n
		data = data[n:]
	}
}

// read fills dst from the bank at off.
func (b *bank) read(off int, dst []byte) {
	for len(dst) > 0 {
		in := off % pageSize
		n := min(pageSize-in, len(dst))
		if pg := b.page(off); pg != nil {
			copy(dst[:n], pg[in:])
		} else {
			clear(dst[:n])
		}
		off += n
		dst = dst[n:]
	}
}

// peek returns a copy of n bank bytes at off.
func (b *bank) peek(off, n int) []byte {
	buf := make([]byte, n)
	b.read(off, buf)
	return buf
}

// word returns the little-endian 32-bit word at off.
func (b *bank) word(off int) uint32 {
	if in := off % pageSize; in <= pageSize-4 {
		if pg := b.page(off); pg != nil {
			return binary.LittleEndian.Uint32(pg[in:])
		}
		return 0
	}
	var w [4]byte
	b.read(off, w[:])
	return binary.LittleEndian.Uint32(w[:])
}
