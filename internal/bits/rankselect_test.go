package bits

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveRank is the bit-loop reference implementation.
func naiveRank(ref []bool, i int) int {
	r := 0
	for _, b := range ref[:i] {
		if b {
			r++
		}
	}
	return r
}

// naiveSelect returns the position of the (j+1)-th true in ref, -1 if
// absent.
func naiveSelect(ref []bool, j int) int {
	for i, b := range ref {
		if b {
			if j == 0 {
				return i
			}
			j--
		}
	}
	return -1
}

// checkAgainstNaive verifies every rank and every select against the
// reference. For large sets ranks are probed at a stride plus all
// word/block/superblock boundaries.
func checkAgainstNaive(t *testing.T, name string, s *Set, ref []bool) {
	t.Helper()
	n := len(ref)
	stride := 1
	if n > 1<<14 {
		stride = 61 // prime: hits every residue mod 64 over time
	}
	naive := 0
	next := 0
	for i := 0; i <= n; i++ {
		if i == next || i%512 == 0 || i == n {
			if got := s.Rank1(i); got != naive {
				t.Fatalf("%s: Rank1(%d) = %d, want %d", name, i, got, naive)
			}
			if i == next {
				next += stride
			}
		}
		if i < n && ref[i] {
			naive++
		}
	}
	if s.Ones() != naive {
		t.Fatalf("%s: Ones = %d, want %d", name, s.Ones(), naive)
	}
	j := 0
	for i, b := range ref {
		if b {
			if got := s.Select1(j); got != i {
				t.Fatalf("%s: Select1(%d) = %d, want %d", name, j, got, i)
			}
			j++
		}
	}
	if got := s.Select1(naive); got != -1 {
		t.Fatalf("%s: Select1(Ones) = %d, want -1", name, got)
	}
}

func fromRef(ref []bool) *Set {
	s := NewSet(len(ref))
	for _, b := range ref {
		s.PushBit(b)
	}
	s.Seal()
	return s
}

// TestRankSelectPropertyRandom cross-checks rank/select against the
// naive reference over seeded random bitvectors at several densities
// and sizes spanning word, block, and superblock boundaries.
func TestRankSelectPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 63, 64, 65, 511, 512, 513, 4095, 4096, 4097, 40000}
	for _, p := range []float64{0.01, 0.35, 0.5, 0.99} {
		for _, n := range sizes {
			ref := make([]bool, n)
			for i := range ref {
				ref[i] = rng.Float64() < p
			}
			checkAgainstNaive(t, "random", fromRef(ref), ref)
		}
	}
}

// TestRankSelectPropertyAdversarial stresses the directory and select
// samples with the structured worst cases: all-zeros, all-ones, and
// long homogeneous runs (sparse ones separated by many empty blocks —
// the pattern that made the unsampled select scan unbounded).
func TestRankSelectPropertyAdversarial(t *testing.T) {
	const n = 100_000
	patterns := map[string]func(i int) bool{
		"all-zeros":     func(i int) bool { return false },
		"all-ones":      func(i int) bool { return true },
		"long-run":      func(i int) bool { return (i/9973)%2 == 1 },
		"sparse":        func(i int) bool { return i%8191 == 0 },
		"dense-gap":     func(i int) bool { return i < 2000 || i >= n-2000 },
		"block-aligned": func(i int) bool { return i%512 == 0 || i%512 == 511 },
	}
	for name, f := range patterns {
		ref := make([]bool, n)
		for i := range ref {
			ref[i] = f(i)
		}
		checkAgainstNaive(t, name, fromRef(ref), ref)
	}
}

// TestSelectSampleBoundaries pins select exactly at and around the
// sampling stride so an off-by-one in the sample table cannot hide.
func TestSelectSampleBoundaries(t *testing.T) {
	// One bit per 700 positions: samples land mid-block-range.
	const gap, count = 700, 3 * selectSampleRate
	ref := make([]bool, gap*count)
	for k := 0; k < count; k++ {
		ref[k*gap] = true
	}
	s := fromRef(ref)
	for _, j := range []int{
		0, 1,
		selectSampleRate - 1, selectSampleRate, selectSampleRate + 1,
		2*selectSampleRate - 1, 2 * selectSampleRate, 2*selectSampleRate + 1,
		count - 1,
	} {
		if got := s.Select1(j); got != j*gap {
			t.Fatalf("Select1(%d) = %d, want %d", j, got, j*gap)
		}
	}
}

// FuzzRankSelect builds a set from fuzzed bytes and checks its
// rank/select against the naive reference (wired into CI fuzz-smoke).
func FuzzRankSelect(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF, 0x00, 0xFF}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xAA}, 200), uint8(7))
	f.Add(bytes.Repeat([]byte{0x00}, 129), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, tail uint8) {
		// tail trims 0-7 bits off the end so lengths are not always
		// byte-aligned.
		n := len(data)*8 - int(tail%8)
		if n < 0 {
			n = 0
		}
		ref := make([]bool, n)
		for i := range ref {
			ref[i] = data[i/8]&(1<<uint(i%8)) != 0
		}
		s := fromRef(ref)
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		// Spot-check rank at every boundary-ish index and full select.
		for i := 0; i <= n; i += 1 + i/17 {
			if got, want := s.Rank1(i), naiveRank(ref, i); got != want {
				t.Fatalf("Rank1(%d) = %d, want %d", i, got, want)
			}
		}
		for j := 0; j < s.Ones(); j++ {
			if got, want := s.Select1(j), naiveSelect(ref, j); got != want {
				t.Fatalf("Select1(%d) = %d, want %d", j, got, want)
			}
		}
	})
}

// bench10M builds the 10M-bit benchmark set once per density.
var bench10M = map[string]*Set{}

func getBench10M(b *testing.B, name string, p float64) *Set {
	if s, ok := bench10M[name]; ok {
		return s
	}
	rng := rand.New(rand.NewSource(99))
	const n = 10_000_000
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.PushBit(rng.Float64() < p)
	}
	s.Seal()
	bench10M[name] = s
	return s
}

func BenchmarkRank1(b *testing.B) {
	for _, c := range []struct {
		name string
		p    float64
	}{{"dense", 0.5}, {"sparse", 0.01}} {
		b.Run(c.name, func(b *testing.B) {
			s := getBench10M(b, c.name, c.p)
			n := s.Len()
			b.ReportAllocs()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += s.Rank1((i * 1_000_003) % (n + 1))
			}
			sinkInt = acc
		})
	}
}

func BenchmarkSelect1(b *testing.B) {
	for _, c := range []struct {
		name string
		p    float64
	}{{"dense", 0.5}, {"sparse", 0.01}} {
		b.Run(c.name, func(b *testing.B) {
			s := getBench10M(b, c.name, c.p)
			ones := s.Ones()
			b.ReportAllocs()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += s.Select1((i * 1_000_003) % ones)
			}
			sinkInt = acc
		})
	}
}

var sinkInt int
