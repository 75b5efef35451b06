package rptrie

import (
	"errors"
	"fmt"
)

// Layout identifies the core of a partition index: the pointer trie
// (Build) or its trit-array tSTAT encoding (CompressTST).
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
