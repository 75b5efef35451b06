package rptrie

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
)

func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	ds := randomDataset(rng, 120)
	pivots := pivot.Select(ds, 3, 5, dist.Hausdorff, p, 7)
	for _, cfg := range []Config{
		{Measure: dist.Hausdorff, Params: p, Grid: g, Pivots: pivots, Optimize: true},
		{Measure: dist.Frechet, Params: p, Grid: g, Pivots: pivots},
		{Measure: dist.LCSS, Params: p, Grid: g},
	} {
		orig, err := Build(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrie(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumNodes() != orig.NumNodes() || back.NumLeaves() != orig.NumLeaves() ||
			pointerCore(t, back).maxDepth != pointerCore(t, orig).maxDepth || back.Len() != orig.Len() {
			t.Fatalf("%v: stats differ after round trip", cfg.Measure)
		}
		// Restored trie satisfies every structural invariant.
		validate(t, back)
		// And answers identically, with identical work.
		for trial := 0; trial < 5; trial++ {
			q := randomDataset(rng, 1)[0]
			got, gotStats := back.SearchWithStats(q.Points, 7)
			want, wantStats := orig.SearchWithStats(q.Points, 7)
			if len(got) != len(want) {
				t.Fatalf("%v: result sizes differ", cfg.Measure)
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
	}
}

func TestPersistEmptyTrie(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 3)
	orig, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res := back.Search([]geo.Point{{X: 1, Y: 1}}, 3); res != nil {
		t.Errorf("restored empty trie returned %v", res)
	}
}

// shiftIDs clones trs with ids rebased at base, for inserts that must
// not collide with an indexed dataset's 0..n-1 ids.
func shiftIDs(trs []*geo.Trajectory, base int) []*geo.Trajectory {
	out := make([]*geo.Trajectory, len(trs))
	for i, tr := range trs {
		out[i] = &geo.Trajectory{ID: base + i, Points: tr.Points}
	}
	return out
}

// TestPersistPreservesGeneration: a saved index restores at the
// source's generation with any pending delta folded in — the contract
// cluster failover relies on to keep restored replicas aligned with
// their donor.
func TestPersistPreservesGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Measure: dist.Hausdorff, Params: dist.Params{Epsilon: 0.5}, Grid: g}
	ds := randomDataset(rng, 60)
	trie, err := Build(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := trie.Insert(shiftIDs(randomDataset(rng, 5), 10_000)...); err != nil {
		t.Fatal(err)
	}
	trie.Delete(ds[0].ID)
	gen := trie.Generation()
	if gen != 2 {
		t.Fatalf("generation %d after two mutations, want 2", gen)
	}

	var buf bytes.Buffer
	if err := trie.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Generation() != gen {
		t.Errorf("restored trie generation %d, want %d", back.Generation(), gen)
	}
	if back.DeltaLen() != 0 {
		t.Errorf("restored trie delta %d, want 0 (folded)", back.DeltaLen())
	}
	if back.Len() != trie.Len() {
		t.Errorf("restored Len %d, want %d", back.Len(), trie.Len())
	}

	cmp, err := CompressTST(trie)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cmp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cback, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cback.Generation() != cmp.Generation() {
		t.Errorf("restored compressed generation %d, want %d", cback.Generation(), cmp.Generation())
	}
}

// corruptSuccinct decodes the frozen succinct fixture, hands the wire
// struct to mutate, and re-encodes it.
func corruptSuccinct(t *testing.T, mutate func(*wireSuccinct)) *bytes.Buffer {
	t.Helper()
	raw := bytes.NewReader(loadFrozen(t, "succinct.img", wireVersion))
	if err := readWireVersion(raw); err != nil {
		t.Fatal(err)
	}
	var ws wireSuccinct
	if err := gob.NewDecoder(raw).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	mutate(&ws)
	var out bytes.Buffer
	if err := writeWireVersion(&out); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&out).Encode(&ws); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestReadSuccinctErrors: corrupted images of the retired succinct
// layout fail the load with a diagnostic instead of producing an
// index that breaks at query time.
func TestReadSuccinctErrors(t *testing.T) {
	if _, err := readSuccinctImage(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := readSuccinctImage(bytes.NewReader([]byte("garbage bytes"))); err == nil {
		t.Error("garbage should fail")
	}
	cases := []struct {
		name   string
		mutate func(*wireSuccinct)
	}{
		{"bad magic", func(ws *wireSuccinct) { ws.Magic = "XPSUCC1" }},
		{"empty trajectory", func(ws *wireSuccinct) { ws.Trajs[0] = &geo.Trajectory{ID: 1} }},
		{"duplicate trajectory", func(ws *wireSuccinct) { ws.Trajs[1].ID = ws.Trajs[0].ID }},
		{"invalid timestamps", func(ws *wireSuccinct) { ws.Trajs[0].Times = []int64{1} }},
		{"bad grid", func(ws *wireSuccinct) { ws.Config.GridBits = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readSuccinctImage(corruptSuccinct(t, tc.mutate)); err == nil {
				t.Fatalf("%s: corrupted stream decoded successfully", tc.name)
			} else {
				t.Logf("%s: %v", tc.name, err)
			}
		})
	}
	// The unmutated fixture still loads.
	if _, err := readSuccinctImage(corruptSuccinct(t, func(*wireSuccinct) {})); err != nil {
		t.Fatalf("re-encoded fixture: %v", err)
	}
}

func TestReadTrieErrors(t *testing.T) {
	if _, err := ReadTrie(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := ReadTrie(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage should fail")
	}
	// Valid gob, wrong magic.
	var buf bytes.Buffer
	ds, _, g := paperDataset()
	orig, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the magic string in place.
	idx := bytes.Index(raw, []byte("RPTRIE1"))
	if idx < 0 {
		t.Fatal("magic not found in encoding")
	}
	raw[idx] = 'X'
	if _, err := ReadTrie(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted magic should fail")
	}
}
