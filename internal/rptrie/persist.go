package rptrie

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
)

// Persistence: a built trie round-trips through gob, preserving the
// expensive build artifacts (pivot distance ranges, Dmax values) so a
// restarted worker does not pay the O(N·L²·Np) construction cost
// again. The format is a preorder node stream plus the indexed
// trajectories.

// wireHeader identifies the format.
const wireMagic = "RPTRIE1"

// wireVersion is the single format-version byte every saved image
// starts with, before the gob stream. Bump it on any change to the
// wire structs or their encoding so an old decoder rejects a new
// image with a version diagnostic instead of a gob misdecode. The
// golden fixtures under testdata/golden pin the current encoding byte
// for byte.
//
// Version history:
//
//	1 — original format.
//	2 — trajectories may carry per-sample timestamps. The pointer and
//	    (retired) succinct images inherit geo.Trajectory.Times through
//	    gob's field additivity; the compressed image adds explicit
//	    HasTimes/TimePlanes fields. Version-1 images keep decoding
//	    (their trajectories simply have no timestamps), which is why
//	    readWireVersion accepts a range rather than one byte.
const (
	wireVersion    byte = 2
	wireVersionMin byte = 1 // oldest image this build still reads
)

// writeWireVersion prefixes a saved image with the format version.
func writeWireVersion(w io.Writer) error {
	_, err := w.Write([]byte{wireVersion})
	return err
}

// readWireVersion checks the leading format-version byte.
func readWireVersion(r io.Reader) error {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("rptrie: reading format version: %w", err)
	}
	if b[0] < wireVersionMin || b[0] > wireVersion {
		return fmt.Errorf("rptrie: unsupported snapshot format version %d (this build reads %d through %d)", b[0], wireVersionMin, wireVersion)
	}
	return nil
}

type wireConfig struct {
	Measure    dist.Measure
	Params     dist.Params
	GridOrigin geo.Point
	GridU      float64
	GridBits   int
	Pivots     []*geo.Trajectory
	Optimize   bool
	DisableLBt bool
	DisableLBp bool
}

// wireConfigOf captures everything needed to reconstruct a Config.
func wireConfigOf(cfg Config) wireConfig {
	return wireConfig{
		Measure:    cfg.Measure,
		Params:     cfg.Params,
		GridOrigin: cfg.Grid.Origin,
		GridU:      cfg.Grid.U,
		GridBits:   cfg.Grid.Bits,
		Pivots:     cfg.Pivots,
		Optimize:   cfg.Optimize,
		DisableLBt: cfg.DisableLBt,
		DisableLBp: cfg.DisableLBp,
	}
}

// configFromWire rebuilds a Config (including the grid) from its wire
// form.
func configFromWire(wc wireConfig) (Config, error) {
	g, err := grid.NewWithBits(geo.Rect{
		Min: wc.GridOrigin,
		Max: geo.Point{X: wc.GridOrigin.X + wc.GridU, Y: wc.GridOrigin.Y + wc.GridU},
	}, wc.GridBits)
	if err != nil {
		return Config{}, fmt.Errorf("rptrie: grid: %w", err)
	}
	return Config{
		Measure:    wc.Measure,
		Params:     wc.Params,
		Grid:       g,
		Pivots:     wc.Pivots,
		Optimize:   wc.Optimize,
		DisableLBt: wc.DisableLBt,
		DisableLBp: wc.DisableLBp,
	}, nil
}

type wireNode struct {
	Z          uint64
	Children   int32
	MinLen     int32
	MaxLen     int32
	MaxDepth   int32
	HR         []pivot.Range
	HasLeaf    bool
	Tids       []int32
	Dmax       float64
	LeafMinLen int32
	LeafMaxLen int32
}

type wireTrie struct {
	Magic    string
	Config   wireConfig
	Gen      uint64
	Nodes    []wireNode // preorder, root first
	Trajs    []*geo.Trajectory
	NumNodes int
	NumLeafs int
	MaxDepth int
}

// save writes the pointer image: a preorder node stream plus the
// indexed trajectories.
func (c *ptrCore) save(w io.Writer, cfg Config, st *state) error {
	wt := wireTrie{
		Magic:    wireMagic,
		Gen:      st.gen,
		Config:   wireConfigOf(cfg),
		NumNodes: c.numNodes,
		NumLeafs: c.numLeafs,
		MaxDepth: c.maxDepth,
	}
	var flatten func(n *node)
	flatten = func(n *node) {
		wn := wireNode{
			Z:        n.z,
			Children: int32(len(n.children)),
			MinLen:   int32(n.minLen),
			MaxLen:   int32(n.maxLen),
			MaxDepth: int32(n.maxDepthBelow),
			HR:       n.hr,
		}
		if n.leaf != nil {
			wn.HasLeaf = true
			wn.Tids = n.leaf.tids
			wn.Dmax = n.leaf.dmax
			wn.LeafMinLen = int32(n.leaf.minLen)
			wn.LeafMaxLen = int32(n.leaf.maxLen)
		}
		wt.Nodes = append(wt.Nodes, wn)
		for _, c := range n.children {
			flatten(c)
		}
	}
	flatten(c.root)
	wt.Trajs = sortedTrajs(st.trajs)
	return gob.NewEncoder(w).Encode(&wt)
}

// sortedTrajs lists trajs by ascending id, so an image is a
// deterministic function of the indexed state (map iteration order is
// not): replicas saving the same state emit identical bytes, and the
// golden fixtures can pin the encoding exactly.
func sortedTrajs(trajs map[int32]*geo.Trajectory) []*geo.Trajectory {
	out := make([]*geo.Trajectory, 0, len(trajs))
	for _, tr := range trajs {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReadTrie deserializes a pointer-layout index written by Save.
func ReadTrie(r io.Reader) (*Index, error) {
	if err := readWireVersion(r); err != nil {
		return nil, err
	}
	var wt wireTrie
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("rptrie: decode: %w", err)
	}
	if wt.Magic != wireMagic {
		return nil, fmt.Errorf("rptrie: bad magic %q", wt.Magic)
	}
	if len(wt.Nodes) == 0 {
		return nil, errors.New("rptrie: empty node stream")
	}
	cfg, err := configFromWire(wt.Config)
	if err != nil {
		return nil, err
	}
	trajs := make(map[int32]*geo.Trajectory, len(wt.Trajs))
	for _, tr := range wt.Trajs {
		if tr != nil && !tr.ValidTimes() {
			return nil, fmt.Errorf("rptrie: trajectory %d has invalid timestamps", tr.ID)
		}
		trajs[int32(tr.ID)] = tr
	}
	pos := 0
	var rebuild func() (*node, error)
	rebuild = func() (*node, error) {
		if pos >= len(wt.Nodes) {
			return nil, errors.New("rptrie: truncated node stream")
		}
		wn := wt.Nodes[pos]
		pos++
		n := &node{
			z:             wn.Z,
			minLen:        int(wn.MinLen),
			maxLen:        int(wn.MaxLen),
			maxDepthBelow: int(wn.MaxDepth),
			hr:            wn.HR,
		}
		if wn.HasLeaf {
			n.leaf = &leafData{
				tids:   wn.Tids,
				dmax:   wn.Dmax,
				minLen: int(wn.LeafMinLen),
				maxLen: int(wn.LeafMaxLen),
			}
			for _, tid := range wn.Tids {
				if _, ok := trajs[tid]; !ok {
					return nil, fmt.Errorf("rptrie: leaf references unknown trajectory %d", tid)
				}
			}
		}
		for i := int32(0); i < wn.Children; i++ {
			c, err := rebuild()
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		return n, nil
	}
	root, err := rebuild()
	if err != nil {
		return nil, err
	}
	if pos != len(wt.Nodes) {
		return nil, fmt.Errorf("rptrie: %d trailing nodes", len(wt.Nodes)-pos)
	}
	pc := &ptrCore{root: root, numNodes: wt.NumNodes, numLeafs: wt.NumLeafs, maxDepth: wt.MaxDepth}
	return newIndex(cfg, &state{gen: wt.Gen, core: pc, trajs: trajs}), nil
}
