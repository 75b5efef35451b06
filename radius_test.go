package repose

import (
	"context"
	"math"
	"testing"

	"repose/internal/dist"
	"repose/internal/oracle"
)

func TestSearchRadiusPublicAPI(t *testing.T) {
	ds := testData(t, 150)
	for _, layout := range []Layout{LayoutPointer, LayoutCompressed} {
		idx, err := Build(ds, Options{Partitions: 4}, WithLayout(layout))
		if err != nil {
			t.Fatal(err)
		}
		q := ds[12]
		const radius = 0.4
		got, err := idx.SearchRadius(context.Background(), q, radius)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		want := oracle.Radius(dist.Hausdorff, dist.Params{Epsilon: idx.opts.Epsilon, Gap: idx.region.Min}, ds, q.Points, radius)
		if len(got) != len(want) {
			t.Fatalf("%v: got %d results, want %d", layout, len(got), len(want))
		}
		for i, r := range got {
			if r.ID != want[i].ID {
				t.Fatalf("%v: rank %d id %d, want %d", layout, i, r.ID, want[i].ID)
			}
			if math.Abs(r.Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v: id %d dist %v want %v", layout, r.ID, r.Dist, want[i].Dist)
			}
		}
		// The query itself is always inside any radius.
		if len(got) == 0 || got[0].ID != q.ID || got[0].Dist != 0 {
			t.Errorf("%v: self match missing: %+v", layout, got)
		}
	}
}
