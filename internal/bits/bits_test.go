package bits

import (
	"math/rand"
	"testing"
)

func buildRandom(t *testing.T, rng *rand.Rand, n int, p float64) (*Set, []bool) {
	t.Helper()
	s := NewSet(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		b := rng.Float64() < p
		ref[i] = b
		s.PushBit(b)
	}
	s.Seal()
	return s, ref
}

func TestGetMatchesPushed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, ref := buildRandom(t, rng, 1000, 0.3)
	for i, want := range ref {
		if got := s.Get(i); got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestRankAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 63, 64, 65, 512, 513, 5000} {
		s, ref := buildRandom(t, rng, n, 0.4)
		naive := 0
		for i := 0; i <= n; i++ {
			if got := s.Rank1(i); got != naive {
				t.Fatalf("n=%d: Rank1(%d) = %d, want %d", n, i, got, naive)
			}
			if got := s.Rank0(i); got != i-naive {
				t.Fatalf("n=%d: Rank0(%d) = %d, want %d", n, i, got, i-naive)
			}
			if i < n && ref[i] {
				naive++
			}
		}
		if s.Ones() != naive {
			t.Fatalf("Ones = %d, want %d", s.Ones(), naive)
		}
	}
}

func TestSelectInvertsRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 100, 512, 5000} {
		s, ref := buildRandom(t, rng, n, 0.2)
		j := 0
		for i := 0; i < n; i++ {
			if ref[i] {
				if got := s.Select1(j); got != i {
					t.Fatalf("n=%d: Select1(%d) = %d, want %d", n, j, got, i)
				}
				j++
			}
		}
		if got := s.Select1(j); got != -1 {
			t.Fatalf("Select1 past end = %d, want -1", got)
		}
		if got := s.Select1(-1); got != -1 {
			t.Fatalf("Select1(-1) = %d", got)
		}
	}
}

func TestSelectRankRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, _ := buildRandom(t, rng, 4096, 0.5)
	for j := 0; j < s.Ones(); j++ {
		pos := s.Select1(j)
		if !s.Get(pos) {
			t.Fatalf("Select1(%d) = %d points at a 0-bit", j, pos)
		}
		if r := s.Rank1(pos); r != j {
			t.Fatalf("Rank1(Select1(%d)) = %d", j, r)
		}
	}
}

func TestPushN(t *testing.T) {
	s := NewSet(0)
	s.PushN(true, 3)
	s.PushN(false, 2)
	s.PushBit(true)
	s.Seal()
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Ones() != 4 {
		t.Fatalf("Ones = %d", s.Ones())
	}
	if !s.Get(0) || s.Get(3) || !s.Get(5) {
		t.Error("PushN bit pattern wrong")
	}
}

func TestAllOnesAllZeros(t *testing.T) {
	ones := NewSet(0)
	ones.PushN(true, 200)
	ones.Seal()
	for i := 0; i <= 200; i++ {
		if ones.Rank1(i) != i {
			t.Fatalf("all-ones Rank1(%d) = %d", i, ones.Rank1(i))
		}
	}
	for j := 0; j < 200; j++ {
		if ones.Select1(j) != j {
			t.Fatalf("all-ones Select1(%d) = %d", j, ones.Select1(j))
		}
	}
	zeros := NewSet(0)
	zeros.PushN(false, 200)
	zeros.Seal()
	if zeros.Ones() != 0 || zeros.Select1(0) != -1 {
		t.Error("all-zeros misbehaves")
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"push after seal", func() { s := NewSet(0); s.Seal(); s.PushBit(true) }},
		{"get out of range", func() { s := NewSet(0); s.PushBit(true); s.Get(1) }},
		{"rank before seal", func() { s := NewSet(0); s.PushBit(true); s.Rank1(0) }},
		{"rank out of range", func() { s := NewSet(0); s.PushBit(true); s.Seal(); s.Rank1(2) }},
		{"select before seal", func() { s := NewSet(0); s.PushBit(true); s.Select1(0) }},
		{"ones before seal", func() { s := NewSet(0); s.Ones() }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestSealIdempotent(t *testing.T) {
	s := NewSet(0)
	s.PushBit(true)
	s.Seal()
	s.Seal() // second seal is a no-op
	if s.Rank1(1) != 1 {
		t.Error("rank broken after double seal")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	s := NewSet(0)
	s.PushN(true, 1000)
	s.Seal()
	if s.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}
