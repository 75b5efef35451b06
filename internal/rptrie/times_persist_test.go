package rptrie

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
)

// timedDataset is the paper dataset with timestamps on a subset of
// the trajectories — the persistence tests must prove a mixed
// timed/untimed population round-trips exactly in every layout.
func timedDataset() []*geo.Trajectory {
	ds, _, _ := paperDataset()
	ds[0].Times = []int64{100, 200, 300, 400}
	ds[2].Times = []int64{-50, -50, 0, 7, 1 << 40}
	return ds
}

func sameTimes(a, b *geo.Trajectory) bool {
	if len(a.Times) != len(b.Times) {
		return false
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			return false
		}
	}
	return true
}

// TestTimestampedImageRoundTrip: Times survive Save/Read bit-exactly
// in both layouts, including which trajectories have none.
func TestTimestampedImageRoundTrip(t *testing.T) {
	ds := timedDataset()
	_, _, g := paperDataset()
	cfg := Config{Measure: dist.Hausdorff, Grid: g}
	tr, err := Build(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	check := func(layout string, got map[int32]*geo.Trajectory) {
		t.Helper()
		for _, want := range ds {
			back, ok := got[int32(want.ID)]
			if !ok {
				t.Fatalf("%s: trajectory %d missing after round-trip", layout, want.ID)
			}
			if !sameTimes(want, back) {
				t.Fatalf("%s: trajectory %d times %v round-tripped to %v", layout, want.ID, want.Times, back.Times)
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pt, err := ReadTrie(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check("pointer", pt.state().trajs)

	cmp, err := CompressTST(tr)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cmp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cb, err := ReadCompressed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check("compressed", cb.state().trajs)
}

// TestTimestampValidationRejected: indexes refuse trajectories whose
// Times disagree with Points or go backwards, at build and at staging.
func TestTimestampValidationRejected(t *testing.T) {
	_, _, g := paperDataset()
	cfg := Config{Measure: dist.Hausdorff, Grid: g}
	bad := mkTraj(9, 1.5, 1.5, 2.5, 2.5)
	bad.Times = []int64{10} // length mismatch
	if _, err := Build(cfg, []*geo.Trajectory{bad}); err == nil {
		t.Fatal("Build accepted a trajectory with mismatched timestamps")
	}
	ds, _, _ := paperDataset()
	tr, err := Build(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(bad); err == nil {
		t.Fatal("Insert accepted a trajectory with mismatched timestamps")
	}
	bad.Times = []int64{30, 10} // non-monotonic
	if err := tr.Upsert(bad); err == nil {
		t.Fatal("Upsert accepted a trajectory with non-monotonic timestamps")
	}
	ok := mkTraj(9, 1.5, 1.5, 2.5, 2.5)
	ok.Times = []int64{10, 30}
	if err := tr.Insert(ok); err != nil {
		t.Fatalf("Insert rejected valid timestamps: %v", err)
	}
}

// FuzzTimestampedImageDecode hammers the image decoders — pointer,
// retired succinct, and compressed, by which%3 — with mutated bytes
// seeded from valid images: whatever the corruption, decoding must
// fail cleanly or produce a valid index — never panic, and never
// accept timestamps that violate ValidTimes.
func FuzzTimestampedImageDecode(f *testing.F) {
	ds := timedDataset()
	_, _, g := paperDataset()
	cfg := Config{Measure: dist.Hausdorff, Grid: g}
	tr, err := Build(cfg, ds)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), buf.Bytes())
	// No build writes succinct images any more: seed from the frozen
	// fixture.
	suc, err := os.ReadFile(filepath.Join("testdata", "golden", "succinct.img"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(1), suc)
	cmp, _ := CompressTST(tr)
	buf.Reset()
	if err := cmp.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(byte(2), buf.Bytes())

	f.Fuzz(func(t *testing.T, which byte, img []byte) {
		back, err := Read(Layout(which%3), bytes.NewReader(img))
		if err != nil {
			return
		}
		for _, id := range back.LiveIDs() {
			if !back.Trajectory(id).ValidTimes() {
				t.Fatal("decoder accepted invalid timestamps")
			}
		}
	})
}
