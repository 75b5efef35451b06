package rptrie

import (
	"bytes"
	"compress/flate"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
)

// TestCompressedPersistRoundTrip: the trit-array layout round-trips
// through Save/ReadCompressed and answers queries identically, with
// identical traversal work, including with a pending delta (folded
// into the saved image). The delta-coded coordinate payload must
// restore every point bit for bit.
func TestCompressedPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	ds := randomDataset(rng, 140)
	pivots := pivot.Select(ds, 3, 5, dist.Hausdorff, p, 7)
	for _, cfg := range []Config{
		{Measure: dist.Hausdorff, Params: p, Grid: g, Pivots: pivots, Optimize: true},
		{Measure: dist.DTW, Params: p, Grid: g},
		{Measure: dist.ERP, Params: p, Grid: g},
	} {
		trie, err := Build(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := CompressTST(trie)
		if err != nil {
			t.Fatal(err)
		}
		// Stage a pending delta on the original: Save must fold it.
		if err := orig.Insert(shiftIDs(randomDataset(rng, 6), 10_000)...); err != nil {
			t.Fatal(err)
		}
		orig.Delete(ds[3].ID, ds[7].ID)

		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCompressed(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.DeltaLen() != 0 {
			t.Fatalf("%v: restored delta %d, want folded", cfg.Measure, back.DeltaLen())
		}
		// The image restores at the source's generation as of Save (the
		// cluster's generation-alignment contract); the live handle's
		// Compact below bumps its own.
		if back.Generation() != orig.Generation() {
			t.Fatalf("%v: restored gen=%d, want %d", cfg.Measure, back.Generation(), orig.Generation())
		}
		if err := orig.Compact(); err != nil {
			t.Fatal(err)
		}
		if back.Len() != orig.Len() {
			t.Fatalf("%v: restored len=%d, want %d", cfg.Measure, back.Len(), orig.Len())
		}
		// Coordinates survive the XOR-delta byte-plane codec exactly.
		for _, tid := range []int{ds[0].ID, ds[11].ID, 10_002} {
			got, want := back.Trajectory(tid), orig.Trajectory(tid)
			if got == nil || want == nil {
				t.Fatalf("%v: trajectory %d missing after round trip", cfg.Measure, tid)
			}
			if len(got.Points) != len(want.Points) {
				t.Fatalf("%v: trajectory %d restored with %d points, want %d",
					cfg.Measure, tid, len(got.Points), len(want.Points))
			}
			for i := range got.Points {
				if got.Points[i] != want.Points[i] {
					t.Fatalf("%v: trajectory %d point %d = %v, want %v",
						cfg.Measure, tid, i, got.Points[i], want.Points[i])
				}
			}
		}
		for trial := 0; trial < 6; trial++ {
			q := randomDataset(rng, 1)[0]
			got, gotStats := back.SearchWithStats(q.Points, 9)
			want, wantStats := orig.SearchWithStats(q.Points, 9)
			if len(got) != len(want) {
				t.Fatalf("%v: result sizes differ (%d vs %d)", cfg.Measure, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v: result %d differs: %+v vs %+v", cfg.Measure, i, got[i], want[i])
				}
			}
			if gotStats != wantStats {
				t.Fatalf("%v: stats differ: %+v vs %+v", cfg.Measure, gotStats, wantStats)
			}
		}
		// The restored index stays live: mutations and compaction work.
		if err := back.Insert(shiftIDs(randomDataset(rng, 3), 20_000)...); err != nil {
			t.Fatal(err)
		}
		if err := back.Compact(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompressedImageDeterministic: identical state saves to identical
// bytes (the cluster dedupes transfers by image digest).
func TestCompressedImageDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	trie, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, randomDataset(rng, 60))
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompressTST(trie)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := c.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}
}

// corruptCompressed encodes a valid compressed image, hands the
// decoded wire struct to mutate, and re-encodes it.
func corruptCompressed(t *testing.T, mutate func(*wireCompressed)) *bytes.Buffer {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	trie, err := Build(Config{Measure: dist.Hausdorff, Params: dist.Params{Epsilon: 0.5}, Grid: g}, randomDataset(rng, 80))
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompressTST(trie)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := readWireVersion(&buf); err != nil {
		t.Fatal(err)
	}
	zr := flate.NewReader(&buf)
	var wc wireCompressed
	if err := gob.NewDecoder(zr).Decode(&wc); err != nil {
		t.Fatal(err)
	}
	zr.Close()
	mutate(&wc)
	var out bytes.Buffer
	if err := writeWireVersion(&out); err != nil {
		t.Fatal(err)
	}
	zw, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(zw).Encode(&wc); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestReadCompressedErrors: corrupted inputs fail the read with a
// diagnostic instead of producing an index that breaks at query time.
func TestReadCompressedErrors(t *testing.T) {
	if _, err := ReadCompressed(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := ReadCompressed(bytes.NewReader([]byte{wireVersion, 'g', 'a', 'r', 'b'})); err == nil {
		t.Error("garbage should fail")
	}
	cases := []struct {
		name   string
		mutate func(*wireCompressed)
	}{
		{"bad magic", func(wc *wireCompressed) { wc.Magic = "XPTST1" }},
		{"node count mismatch", func(wc *wireCompressed) { wc.NumNodes++ }},
		{"leaf count mismatch", func(wc *wireCompressed) { wc.NumLeafs-- }},
		{"duplicate trajectory", func(wc *wireCompressed) { wc.TrajIDs[1] = wc.TrajIDs[0] }},
		{"empty trajectory", func(wc *wireCompressed) { wc.TrajLens[0] = 0 }},
		{"coordinate payload truncated", func(wc *wireCompressed) { wc.XPlanes = wc.XPlanes[:len(wc.XPlanes)-8] }},
		{"id/length arrays disagree", func(wc *wireCompressed) { wc.TrajLens = wc.TrajLens[:len(wc.TrajLens)-1] }},
		{"bad grid", func(wc *wireCompressed) { wc.Config.GridBits = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCompressed(corruptCompressed(t, tc.mutate)); err == nil {
				t.Fatalf("%s: corrupted stream decoded successfully", tc.name)
			} else {
				t.Logf("%s: %v", tc.name, err)
			}
		})
	}
}

// TestCompressNil: compressing a nil trie fails cleanly.
func TestCompressNil(t *testing.T) {
	if _, err := CompressTST(nil); err == nil {
		t.Error("expected error for nil trie")
	}
}

// TestDirectedRounding: the float32 leaf Dmax rounds up, never below
// the exact value, so the bounds built on it stay admissible.
func TestDirectedRounding(t *testing.T) {
	vals := []float64{0, 1, math.Pi, 1e-40, 1e30, -math.Pi, 0.1, 1.0000000001}
	for _, v := range vals {
		if float64(f32Up(v)) < v {
			t.Errorf("f32Up(%v) = %v rounded down", v, f32Up(v))
		}
	}
	if !math.IsInf(float64(f32Up(math.Inf(-1))), -1) {
		t.Error("f32Up(-Inf) should stay -Inf")
	}
}
