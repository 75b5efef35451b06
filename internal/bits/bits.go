// Package bits provides a bitset with constant-time rank and
// sample-accelerated select, the substrate for the compressed
// trit-array RP-Trie layout (after Kanda & Fujii's tSTAT).
package bits

import "math/bits"

const (
	wordBits = 64
	// rankBlockWords is the number of 64-bit words per rank
	// directory block. 8 words = 512 bits per block.
	rankBlockWords = 8
	// superBlocks is the number of rank blocks per superblock.
	// 8 blocks = 4096 bits, so a block's offset from its superblock
	// rank always fits a uint16.
	superBlocks = 8
	superWords  = rankBlockWords * superBlocks
	// selectSampleRate is the 1-bit sampling stride for Select1: one
	// sample per selectSampleRate ones, recording the rank block that
	// holds the sampled bit. Select binary-searches only the blocks
	// between two adjacent samples, so its worst case is
	// O(log(blocks spanned by selectSampleRate ones)) instead of
	// O(log(all blocks)).
	selectSampleRate = 512
)

// Set is an append-only bitset with a two-level rank directory and
// sampled select. Bits are appended with PushBit/PushN; Rank and
// Select become available after Seal.
type Set struct {
	words []uint64
	n     int // number of valid bits

	// Rank directory, built by Seal. super[s] is the number of ones
	// before superblock s (64 words); blockOff[b] is the number of
	// ones between block b's superblock start and block b (8 words).
	super    []uint64
	blockOff []uint16
	ones     int

	// selectSamples[k] is the rank-block index containing the
	// (k*selectSampleRate+1)-th 1-bit.
	selectSamples []uint32

	sealed bool
}

// NewSet returns an empty bitset with capacity hint nbits.
func NewSet(nbits int) *Set {
	return &Set{words: make([]uint64, 0, (nbits+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

// PushBit appends one bit.
func (s *Set) PushBit(b bool) {
	if s.sealed {
		panic("bits: push after Seal")
	}
	w := s.n / wordBits
	if w == len(s.words) {
		s.words = append(s.words, 0)
	}
	if b {
		s.words[w] |= 1 << uint(s.n%wordBits)
	}
	s.n++
}

// PushN appends n copies of bit b.
func (s *Set) PushN(b bool, n int) {
	for i := 0; i < n; i++ {
		s.PushBit(b)
	}
}

// Get returns bit i.
func (s *Set) Get(i int) bool {
	if i < 0 || i >= s.n {
		panic("bits: index out of range")
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Seal builds the rank directory and select samples. After Seal the
// set is immutable.
func (s *Set) Seal() {
	if s.sealed {
		return
	}
	nblocks := (len(s.words) + rankBlockWords - 1) / rankBlockWords
	nsupers := (nblocks + superBlocks - 1) / superBlocks
	s.super = make([]uint64, nsupers+1)
	s.blockOff = make([]uint16, nblocks)
	var total uint64
	var superBase uint64
	for b := 0; b < nblocks; b++ {
		if b%superBlocks == 0 {
			s.super[b/superBlocks] = total
			superBase = total
		}
		s.blockOff[b] = uint16(total - superBase)
		end := (b + 1) * rankBlockWords
		if end > len(s.words) {
			end = len(s.words)
		}
		for _, w := range s.words[b*rankBlockWords : end] {
			c := uint64(bits.OnesCount64(w))
			// Record the block of every selectSampleRate-th one.
			// Invariant: every sample with 1-bit index < total is
			// already recorded, so pending samples land in this word.
			for uint64(len(s.selectSamples))*selectSampleRate < total+c {
				s.selectSamples = append(s.selectSamples, uint32(b))
			}
			total += c
		}
	}
	s.super[nsupers] = total
	s.ones = int(total)
	s.sealed = true
}

// rankOfBlock returns the number of ones before rank block b; b may
// equal the block count (yielding Ones).
func (s *Set) rankOfBlock(b int) int {
	if b >= len(s.blockOff) {
		return s.ones
	}
	return int(s.super[b/superBlocks]) + int(s.blockOff[b])
}

// Rank1 returns the number of 1-bits in positions [0, i); i may equal
// Len. The set must be sealed. Constant time: one superblock load,
// one block offset load, and at most eight popcounts.
func (s *Set) Rank1(i int) int {
	if !s.sealed {
		panic("bits: Rank1 before Seal")
	}
	if i < 0 || i > s.n {
		panic("bits: rank index out of range")
	}
	w := i / wordBits
	block := w / rankBlockWords
	r := s.rankOfBlock(block)
	for j := block * rankBlockWords; j < w; j++ {
		r += bits.OnesCount64(s.words[j])
	}
	if rem := uint(i % wordBits); rem != 0 {
		r += bits.OnesCount64(s.words[w] & (1<<rem - 1))
	}
	return r
}

// Rank0 returns the number of 0-bits in positions [0, i).
func (s *Set) Rank0(i int) int { return i - s.Rank1(i) }

// Ones returns the total number of 1-bits.
func (s *Set) Ones() int {
	if !s.sealed {
		panic("bits: Ones before Seal")
	}
	return s.ones
}

// Select1 returns the position of the (j+1)-th 1-bit (0-based j), or
// -1 if there are not that many. The set must be sealed. The select
// samples bound the search to the blocks between two adjacent sampled
// ones, then one block (at most eight words) is scanned.
func (s *Set) Select1(j int) int {
	if !s.sealed {
		panic("bits: Select1 before Seal")
	}
	if j < 0 || j >= s.ones {
		return -1
	}
	// Narrow to the inter-sample block range containing the bit.
	k := j / selectSampleRate
	lo := int(s.selectSamples[k])
	hi := len(s.blockOff)
	if k+1 < len(s.selectSamples) {
		hi = int(s.selectSamples[k+1]) + 1
	}
	// Binary search for the last block whose rank is <= j.
	for lo < hi {
		mid := (lo + hi) / 2
		if s.rankOfBlock(mid) <= j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	block := lo - 1
	r := s.rankOfBlock(block)
	end := (block + 1) * rankBlockWords
	if end > len(s.words) {
		end = len(s.words)
	}
	for w := block * rankBlockWords; w < end; w++ {
		c := bits.OnesCount64(s.words[w])
		if r+c > j {
			// The target bit is inside word w.
			return w*wordBits + selectInWord(s.words[w], j-r)
		}
		r += c
	}
	return -1
}

// selectInWord returns the position of the (j+1)-th set bit in w.
func selectInWord(w uint64, j int) int {
	for i := 0; i < j; i++ {
		w &= w - 1 // clear lowest set bit
	}
	return bits.TrailingZeros64(w)
}

// SizeBytes returns the approximate in-memory footprint, directories
// included.
func (s *Set) SizeBytes() int {
	return len(s.words)*8 + len(s.super)*8 + len(s.blockOff)*2 +
		len(s.selectSamples)*4 + 96
}
