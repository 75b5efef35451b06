package rptrie

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repose/internal/geo"
	"repose/internal/topk"
)

// Layout identifies one of the per-partition index layouts: the
// pointer trie (Build) or the trit-array tSTAT layout (CompressTST).
// The zero value is the pointer layout, so layout fields default to
// it. Value 1 belonged to the retired two-tier succinct layout; it
// stays reserved so images, manifests and wire values keep their
// meaning, and images recorded under it load as LayoutCompressed.
type Layout uint8

const (
	LayoutPointer    Layout = 0
	LayoutCompressed Layout = 2
)

// layoutSuccinct is the retired succinct layout's value, still found
// in checkpoint tags and manifests written before its retirement.
const layoutSuccinct Layout = 1

// ErrUnknownLayout reports a layout value or name that names no
// supported layout.
var ErrUnknownLayout = errors.New("rptrie: unknown layout")

func (l Layout) String() string {
	switch l {
	case LayoutPointer:
		return "pointer"
	case LayoutCompressed:
		return "compressed"
	}
	return fmt.Sprintf("Layout(%d)", uint8(l))
}

// check returns nil when l names a supported layout and an
// ErrUnknownLayout error otherwise.
func (l Layout) check() error {
	if l == LayoutPointer || l == LayoutCompressed {
		return nil
	}
	return fmt.Errorf("%w %v (want pointer|compressed)", ErrUnknownLayout, l)
}

// ParseLayout maps a configuration string (e.g. a -layout flag value)
// to a Layout. The empty string is the pointer layout.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "pointer", "trie":
		return LayoutPointer, nil
	case "compressed", "tstat":
		return LayoutCompressed, nil
	}
	return 0, fmt.Errorf("%w %q (want pointer|compressed)", ErrUnknownLayout, s)
}

// Index is the surface of a partition index: the pointer layout
// (*Trie), the compressed layout (*Compressed), and the disk-backed
// wrapper of either (*Durable). Callers reach every one of them
// through it rather than switching on the concrete type.
type Index interface {
	Search(q []geo.Point, k int) []topk.Item
	SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item
	SearchContext(ctx context.Context, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error)
	SearchRadiusContext(ctx context.Context, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error)
	BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error)
	Insert(trs ...*geo.Trajectory) error
	Delete(ids ...int) int
	Upsert(trs ...*geo.Trajectory) error
	Compact() error
	Generation() uint64
	DeltaLen() int
	Len() int
	LiveIDs() []int
	SizeBytes() int
	Config() Config
	Layout() Layout
	// Save writes the index image that Read loads back under Layout.
	Save(w io.Writer) error
}

var (
	_ Index = (*Trie)(nil)
	_ Index = (*Compressed)(nil)
	_ Index = (*Durable)(nil)
)

// memIndex is an in-memory layout: an Index whose current state can
// be captured and put back, which is how Durable rolls back a
// mutation whose log write failed.
type memIndex interface {
	Index
	snapshot() any
	restore(snap any)
}

// BuildLayout builds an index over ds in layout l.
func BuildLayout(cfg Config, ds []*geo.Trajectory, l Layout) (Index, error) {
	if err := l.check(); err != nil {
		return nil, err
	}
	t, err := Build(cfg, ds)
	if err != nil {
		return nil, err
	}
	if l == LayoutPointer {
		return t, nil
	}
	c, err := CompressTST(t)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Read loads an image written by the Save of an index in layout l.
// An image of the retired succinct layout loads as LayoutCompressed.
func Read(l Layout, r io.Reader) (Index, error) { return readMem(l, r) }

func readMem(l Layout, r io.Reader) (memIndex, error) {
	switch l {
	case LayoutPointer:
		return orNil(ReadTrie(r))
	case layoutSuccinct:
		return orNil(readSuccinctImage(r))
	case LayoutCompressed:
		return orNil(ReadCompressed(r))
	}
	return nil, l.check()
}

// orNil keeps a failed typed read from becoming a non-nil interface.
func orNil[T memIndex](x T, err error) (memIndex, error) {
	if err != nil {
		return nil, err
	}
	return x, nil
}
