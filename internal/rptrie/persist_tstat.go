package rptrie

import (
	"compress/flate"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repose/internal/geo"
)

// Compressed persistence: the image is the format-version byte
// followed by one DEFLATE stream wrapping a gob of the generation,
// the build configuration, and a delta-coded trajectory payload. The
// trit-array core itself is never written: it is a pure function of
// (config, trajectories) — the same derivation Compact runs — so
// ReadCompressed rebuilds it at load and only cross-checks the node
// and leaf counts recorded at save time. Shipping the inputs instead
// of the structure keeps failover transfers near the entropy of the
// data (a rebuilt core also cannot be structurally corrupt, which is
// why the loader validates payload shape rather than trie shape).
//
// The trajectory points — the bulk of the image — are raw float64
// pairs whose consecutive samples share sign, exponent, and high
// mantissa bits. XOR-ing each coordinate with its predecessor and
// then shuffling the stream into byte planes (all 8th bytes, then all
// 7th, ...) turns that redundancy into long zero runs the DEFLATE
// layer removes, which together with the elided core is what makes
// compressed Snapshot/Restore transfers several times smaller than
// the pointer layout's gob images.

// wireTSTMagic identifies the trit-array wire format.
const wireTSTMagic = "RPTST1"

type wireCompressed struct {
	Magic  string
	Config wireConfig
	Gen    uint64

	// Shape of the core the saver held; the loader rebuilds the core
	// from the trajectories and must arrive at the same counts.
	NumNodes int
	NumLeafs int

	// Trajectories: ids ascending, per-trajectory point counts, and
	// the XOR-delta byte-plane-shuffled coordinate payloads.
	TrajIDs  []int64
	TrajLens []int32
	XPlanes  []byte
	YPlanes  []byte

	// Timestamps (format version 2): HasTimes flags which trajectories
	// carry per-sample times, and TimePlanes is the XOR-delta
	// byte-plane payload of their uint64-reinterpreted timestamps, in
	// trajectory order over the timed subset only. Both nil when no
	// trajectory is timestamped — version-1 images decode with the
	// fields absent, which gob leaves nil, so old images read cleanly.
	HasTimes   []bool
	TimePlanes []byte
}

// encodeTimes XOR-deltas the timestamps of every timed trajectory
// (resetting at each trajectory start) and byte-plane-shuffles the
// word stream exactly like encodeCoords; timestamps of consecutive
// samples share high bytes, so the same transform exposes the
// redundancy to DEFLATE. Returns (nil, nil) when nothing is timed.
func encodeTimes(trajs []*geo.Trajectory) (has []bool, planes []byte) {
	total := 0
	for _, tr := range trajs {
		total += len(tr.Times)
	}
	if total == 0 {
		return nil, nil
	}
	has = make([]bool, len(trajs))
	words := make([]uint64, 0, total)
	for i, tr := range trajs {
		if len(tr.Times) == 0 {
			continue
		}
		has[i] = true
		var prev uint64
		for _, ts := range tr.Times {
			b := uint64(ts)
			words = append(words, b^prev)
			prev = b
		}
	}
	planes = make([]byte, 8*total)
	for i, v := range words {
		for p := 0; p < 8; p++ {
			planes[(7-p)*total+i] = byte(v >> (8 * uint(p)))
		}
	}
	return has, planes
}

// decodeTimes inverts encodeTimes onto the trajectories flagged in
// has, whose point slices must already be sized by TrajLens (each
// timed trajectory carries one timestamp per point).
func decodeTimes(has []bool, planes []byte, trajs []*geo.Trajectory) error {
	if len(has) == 0 {
		if len(planes) != 0 {
			return errors.New("rptrie: timestamp payload without presence flags")
		}
		return nil
	}
	if len(has) != len(trajs) {
		return fmt.Errorf("rptrie: %d timestamp flags for %d trajectories", len(has), len(trajs))
	}
	total := 0
	for i, tr := range trajs {
		if has[i] {
			total += len(tr.Points)
		}
	}
	if len(planes) != 8*total {
		return fmt.Errorf("rptrie: timestamp payload %d bytes for %d timed points", len(planes), total)
	}
	i := 0
	for ti, tr := range trajs {
		if !has[ti] {
			continue
		}
		tr.Times = make([]int64, len(tr.Points))
		var prev uint64
		for j := range tr.Times {
			var v uint64
			for p := 0; p < 8; p++ {
				v |= uint64(planes[(7-p)*total+i]) << (8 * uint(p))
			}
			prev ^= v
			tr.Times[j] = int64(prev)
			i++
		}
	}
	return nil
}

// encodeCoords XOR-deltas one coordinate of every trajectory (resetting
// at each trajectory start) and returns the byte-plane shuffle of the
// resulting word stream: plane 7 (sign+exponent) first, plane 0 last.
func encodeCoords(trajs []*geo.Trajectory, pick func(geo.Point) float64) []byte {
	total := 0
	for _, tr := range trajs {
		total += len(tr.Points)
	}
	words := make([]uint64, 0, total)
	for _, tr := range trajs {
		var prev uint64
		for _, pt := range tr.Points {
			b := math.Float64bits(pick(pt))
			words = append(words, b^prev)
			prev = b
		}
	}
	out := make([]byte, 8*total)
	for i, v := range words {
		for p := 0; p < 8; p++ {
			out[(7-p)*total+i] = byte(v >> (8 * uint(p)))
		}
	}
	return out
}

// decodeCoords inverts encodeCoords into the trajectories' coordinate,
// whose point slices must already be sized by TrajLens.
func decodeCoords(planes []byte, trajs []*geo.Trajectory, set func(*geo.Point, float64)) error {
	total := 0
	for _, tr := range trajs {
		total += len(tr.Points)
	}
	if len(planes) != 8*total {
		return fmt.Errorf("rptrie: coordinate payload %d bytes for %d points", len(planes), total)
	}
	i := 0
	for _, tr := range trajs {
		var prev uint64
		for j := range tr.Points {
			var v uint64
			for p := 0; p < 8; p++ {
				v |= uint64(planes[(7-p)*total+i]) << (8 * uint(p))
			}
			prev ^= v
			set(&tr.Points[j], math.Float64frombits(prev))
			i++
		}
	}
	return nil
}

// save writes the compressed image: the generation, the build
// configuration and the delta-coded trajectory payload, without the
// core itself.
func (c *cmpCore) save(w io.Writer, cfg Config, st *state) error {
	wc := wireCompressed{
		Magic:    wireTSTMagic,
		Config:   wireConfigOf(cfg),
		Gen:      st.gen,
		NumNodes: c.numNodes,
		NumLeafs: c.numLeafs,
	}
	ordered := sortedTrajs(st.trajs)
	wc.TrajIDs = make([]int64, len(ordered))
	wc.TrajLens = make([]int32, len(ordered))
	for i, tr := range ordered {
		wc.TrajIDs[i] = int64(tr.ID)
		wc.TrajLens[i] = int32(len(tr.Points))
	}
	wc.XPlanes = encodeCoords(ordered, func(p geo.Point) float64 { return p.X })
	wc.YPlanes = encodeCoords(ordered, func(p geo.Point) float64 { return p.Y })
	wc.HasTimes, wc.TimePlanes = encodeTimes(ordered)
	zw, err := flate.NewWriter(w, flate.DefaultCompression)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(zw).Encode(&wc); err != nil {
		return err
	}
	return zw.Close()
}

// ReadCompressed deserializes a compressed-layout index written by
// Save. The trit-array core is rebuilt from the decoded trajectories
// (it is not on the wire) and its shape is checked against the counts
// the saver recorded, so a corrupted stream fails the read instead of
// a later query.
func ReadCompressed(r io.Reader) (*Index, error) {
	if err := readWireVersion(r); err != nil {
		return nil, err
	}
	zr := flate.NewReader(r)
	defer zr.Close()
	var wc wireCompressed
	if err := gob.NewDecoder(zr).Decode(&wc); err != nil {
		return nil, fmt.Errorf("rptrie: decode: %w", err)
	}
	if wc.Magic != wireTSTMagic {
		return nil, fmt.Errorf("rptrie: bad magic %q", wc.Magic)
	}
	cfg, err := configFromWire(wc.Config)
	if err != nil {
		return nil, err
	}
	if len(wc.TrajIDs) != len(wc.TrajLens) {
		return nil, errors.New("rptrie: trajectory id/length arrays disagree")
	}
	trajs := make(map[int32]*geo.Trajectory, len(wc.TrajIDs))
	ordered := make([]*geo.Trajectory, len(wc.TrajIDs))
	for i, id := range wc.TrajIDs {
		if wc.TrajLens[i] <= 0 {
			return nil, errors.New("rptrie: empty trajectory in stream")
		}
		tr := &geo.Trajectory{ID: int(id), Points: make([]geo.Point, wc.TrajLens[i])}
		if _, dup := trajs[int32(tr.ID)]; dup {
			return nil, fmt.Errorf("rptrie: duplicate trajectory %d", tr.ID)
		}
		trajs[int32(tr.ID)] = tr
		ordered[i] = tr
	}
	if err := decodeCoords(wc.XPlanes, ordered, func(p *geo.Point, v float64) { p.X = v }); err != nil {
		return nil, err
	}
	if err := decodeCoords(wc.YPlanes, ordered, func(p *geo.Point, v float64) { p.Y = v }); err != nil {
		return nil, err
	}
	if err := decodeTimes(wc.HasTimes, wc.TimePlanes, ordered); err != nil {
		return nil, err
	}
	x, err := rebuildCompressed(cfg, wc.Gen, ordered)
	if err != nil {
		return nil, err
	}
	if nodes, leaves := x.state().core.counts(); nodes != wc.NumNodes || leaves != wc.NumLeafs {
		return nil, fmt.Errorf("rptrie: rebuilt core has %d nodes, %d leaves; image recorded %d, %d",
			nodes, leaves, wc.NumNodes, wc.NumLeafs)
	}
	return x, nil
}

// rebuildCompressed derives the compressed index over a loaded
// image's trajectories at the image's generation.
func rebuildCompressed(cfg Config, gen uint64, trajs []*geo.Trajectory) (*Index, error) {
	st, err := buildState(cfg, trajs, LayoutCompressed)
	if err != nil {
		return nil, fmt.Errorf("rptrie: rebuilding core: %w", err)
	}
	st.gen = gen
	return newIndex(cfg, st), nil
}

// wireSuccMagic identifies an image of the retired two-tier succinct
// layout.
const wireSuccMagic = "RPSUCC1"

// wireSuccinct is the part of a succinct image that still matters.
// Like the compressed core, the succinct core was a deterministic
// function of (config, trajectories), so its bitmaps and byte
// sequences are not read (gob skips fields the struct lacks).
type wireSuccinct struct {
	Magic  string
	Config wireConfig
	Gen    uint64
	Trajs  []*geo.Trajectory
}

// readSuccinctImage loads a succinct image as a compressed index at
// the image's generation.
func readSuccinctImage(r io.Reader) (*Index, error) {
	if err := readWireVersion(r); err != nil {
		return nil, err
	}
	var ws wireSuccinct
	if err := gob.NewDecoder(r).Decode(&ws); err != nil {
		return nil, fmt.Errorf("rptrie: decode: %w", err)
	}
	if ws.Magic != wireSuccMagic {
		return nil, fmt.Errorf("rptrie: bad magic %q", ws.Magic)
	}
	cfg, err := configFromWire(ws.Config)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(ws.Trajs))
	for _, tr := range ws.Trajs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, errors.New("rptrie: empty trajectory in stream")
		}
		if seen[tr.ID] {
			return nil, fmt.Errorf("rptrie: duplicate trajectory %d", tr.ID)
		}
		seen[tr.ID] = true
	}
	return rebuildCompressed(cfg, ws.Gen, ws.Trajs)
}
