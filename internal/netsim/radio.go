package netsim

import (
	"fmt"
	"math"
	"slices"

	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

// NeighborIndex precomputes, for a static device layout, which devices
// each transmitter reaches: the neighbour sets a swarm broadcast
// delivers to. Construction bins positions on a uniform grid sized by
// the smallest radio range, so building all n lists costs O(n · local
// density) instead of the O(n²) all-pairs scan — and a Neighbors query
// afterwards is a zero-allocation slice lookup. The same index serves
// the single-engine path and every cell of a sharded run: range
// queries never scan the whole fleet again.
type NeighborIndex struct {
	pos []geo.Point
	nbr [][]int32 // per device, ascending ids within the device's range
}

// BuildNeighborIndex computes per-device neighbour sets: e is a
// neighbour of d when dist(d,e) <= rangeM[d] (transmitter-ranged, so
// asymmetric mixes of long-range drones and short-range tiny robots
// work naturally). Positions are treated as static for the index's
// lifetime.
func BuildNeighborIndex(pts []geo.Point, rangeM []float64) *NeighborIndex {
	if len(pts) != len(rangeM) {
		panic("netsim: positions and ranges must align")
	}
	ix := &NeighborIndex{pos: pts, nbr: make([][]int32, len(pts))}
	if len(pts) == 0 {
		return ix
	}
	// Grid cell side = the smallest positive range. A device of range r
	// scans the int(r/side)+1 rings of bins around its own, which covers
	// its whole disc at any side, so the lists do not depend on the
	// choice; small bins just make the short-range majority scan less
	// empty area. The side is floored at about extent/(2·sqrt(n)), so
	// the grid never holds more than ~4n bins however small a range is.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	side := math.Inf(1)
	for i, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		if r := rangeM[i]; r > 0 && r < side {
			side = r
		}
	}
	if math.IsInf(side, 1) {
		return ix // no device can reach anything
	}
	side = math.Max(side, math.Max(maxX-minX, maxY-minY)/(2*math.Sqrt(float64(len(pts)))))
	cols := int((maxX-minX)/side) + 1
	rows := int((maxY-minY)/side) + 1
	binOf := func(p geo.Point) (int, int) {
		return int((p.X - minX) / side), int((p.Y - minY) / side)
	}
	// Counting sort into one flat array: bin b's members are
	// members[binOff[b]:binOff[b+1]], ascending ids.
	binOff := make([]int32, cols*rows+1)
	binIdx := make([]int32, len(pts))
	for i, p := range pts {
		bx, by := binOf(p)
		binIdx[i] = int32(by*cols + bx)
		binOff[binIdx[i]+1]++
	}
	for b := 1; b < len(binOff); b++ {
		binOff[b] += binOff[b-1]
	}
	members := make([]int32, len(pts))
	fill := slices.Clone(binOff[:len(binOff)-1])
	for i, b := range binIdx {
		members[fill[b]] = int32(i)
		fill[b]++
	}
	var buf []int32 // reused across devices; each list is copied out at its exact size
	for d, p := range pts {
		r := rangeM[d]
		if r <= 0 {
			continue
		}
		r2 := r * r
		bx, by := binOf(p)
		span := int(r/side) + 1
		buf = buf[:0]
		for y := max(by-span, 0); y <= min(by+span, rows-1); y++ {
			row := y * cols
			lo, hi := binOff[row+max(bx-span, 0)], binOff[row+min(bx+span, cols-1)+1]
			for _, e := range members[lo:hi] {
				if int(e) == d {
					continue
				}
				q := pts[e]
				dx, dy := q.X-p.X, q.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					buf = append(buf, e)
				}
			}
		}
		if len(buf) > 0 {
			slices.Sort(buf)
			ix.nbr[d] = slices.Clone(buf)
		}
	}
	return ix
}

// buildNeighborsNaive is the reference all-pairs scan the index
// replaces; tests assert set equality and the bench measures what the
// binning buys.
func buildNeighborsNaive(pts []geo.Point, rangeM []float64) [][]int32 {
	out := make([][]int32, len(pts))
	for d, p := range pts {
		r2 := rangeM[d] * rangeM[d]
		if r2 <= 0 {
			continue
		}
		for e, q := range pts {
			if e == d {
				continue
			}
			dx, dy := q.X-p.X, q.Y-p.Y
			if dx*dx+dy*dy <= r2 {
				out[d] = append(out[d], int32(e))
			}
		}
	}
	return out
}

// Neighbors returns device d's neighbour set (read-only; shared). The
// lookup allocates nothing.
func (ix *NeighborIndex) Neighbors(d int) []int32 { return ix.nbr[d] }

// Position returns device d's static position.
func (ix *NeighborIndex) Position(d int) geo.Point { return ix.pos[d] }

// AvgDegree reports the mean neighbour count (diagnostics/tests).
func (ix *NeighborIndex) AvgDegree() float64 {
	if len(ix.nbr) == 0 {
		return 0
	}
	n := 0
	for _, l := range ix.nbr {
		n += len(l)
	}
	return float64(n) / float64(len(ix.nbr))
}

// RadioStats aggregates broadcast accounting across cells.
type RadioStats struct {
	Broadcasts  uint64 // transmissions
	Deliveries  uint64 // per-receiver payload deliveries
	CrossEvents uint64 // cross-cell delivery events emitted (≤ one per neighbour cell per broadcast)
}

// Radio is the sharded wireless medium: per-cell local delivery plus
// boundary channels into neighbouring cells, with the medium's MAC +
// propagation latency declared as the executive's cross-cell lookahead.
// A broadcast delivers its payload to every neighbour of the sender
// after exactly that latency; in-cell receivers get a local event,
// receivers in other cells get one grouped delivery event per
// destination cell through the window barrier. Built over a one-cell
// executive it degenerates to a plain indexed broadcast medium — the
// single-engine path shares every code path but the mailbox.
type Radio struct {
	se      *sim.ShardedEngine
	ix      *NeighborIndex
	cellOf  []int
	latency sim.Time

	// Each sender's receivers, grouped by destination cell: sender d's
	// spans are spans[spanOff[d]:spanOff[d+1]], in ascending cell order,
	// and each span's receivers rcv[lo:hi] are ascending ids owned by
	// that cell. Static, so a broadcast emits one event per span and
	// each event walks exactly its cell's receivers.
	rcv     []int32
	spans   []rcvSpan
	spanOff []int32

	// Counters are per-cell slices written only by the owning cell's
	// events, so the hot path needs no atomics; Stats sums at read.
	sent      []uint64
	delivered []uint64
	crossed   []uint64
}

// rcvSpan is one (sender, destination cell) group of receivers.
type rcvSpan struct {
	cell, lo, hi int32
}

// NewRadio wires a radio over the executive. latencyS is the medium's
// one-way MAC+propagation delay; it must be at least the executive's
// declared lookahead or the conservative windows would be unsound —
// a violation reports the executive's typed *sim.LookaheadError.
// cellOf maps each device to its owning cell (geo.CellIndex.CellOwners
// of the same cut the executive was built with).
func NewRadio(se *sim.ShardedEngine, ix *NeighborIndex, cellOf []int, latencyS float64) (*Radio, error) {
	if latencyS < se.Lookahead() {
		return nil, fmt.Errorf("netsim: radio latency %g below executive lookahead: %w",
			latencyS, &sim.LookaheadError{LookaheadS: latencyS})
	}
	for d, c := range cellOf {
		if c < 0 || c >= se.Cells() {
			return nil, fmt.Errorf("netsim: device %d assigned to unknown cell %d", d, c)
		}
	}
	r := &Radio{
		se: se, ix: ix, cellOf: cellOf, latency: latencyS,
		sent:      make([]uint64, se.Cells()),
		delivered: make([]uint64, se.Cells()),
		crossed:   make([]uint64, se.Cells()),
	}
	r.groupReceivers(se.Cells())
	return r, nil
}

// groupReceivers builds the per-sender receiver spans in one pass over
// the senders: a counting sort of each neighbour list by owning cell,
// stable so ids stay ascending inside a cell. The scratch arrays are
// reused across senders, so the build allocates only its outputs.
func (r *Radio) groupReceivers(cells int) {
	nbr := r.ix.nbr
	total := 0
	for _, l := range nbr {
		total += len(l)
	}
	r.rcv = make([]int32, total)
	r.spans = make([]rcvSpan, 0, len(nbr))
	r.spanOff = make([]int32, len(nbr)+1)
	count := make([]int32, cells) // the current sender's receivers per cell
	next := make([]int32, cells)  // per-cell write cursor into rcv
	var seen []int32              // the current sender's distinct cells
	lo := int32(0)
	for d, l := range nbr {
		seen = seen[:0]
		for _, n := range l {
			c := r.cellOf[n]
			if count[c] == 0 {
				seen = append(seen, int32(c))
			}
			count[c]++
		}
		// Insertion sort: a sender's receivers occupy a handful of cells.
		for i := 1; i < len(seen); i++ {
			for j := i; j > 0 && seen[j] < seen[j-1]; j-- {
				seen[j], seen[j-1] = seen[j-1], seen[j]
			}
		}
		for _, c := range seen {
			next[c] = lo
			r.spans = append(r.spans, rcvSpan{cell: c, lo: lo, hi: lo + count[c]})
			lo += count[c]
			count[c] = 0
		}
		for _, n := range l {
			c := r.cellOf[n]
			r.rcv[next[c]] = n
			next[c]++
		}
		r.spanOff[d+1] = int32(len(r.spans))
	}
}

// LatencyS returns the one-way delivery latency.
func (r *Radio) LatencyS() float64 { return r.latency }

// Neighbors exposes the underlying index lookup (zero-allocation).
func (r *Radio) Neighbors(d int) []int32 { return r.ix.Neighbors(d) }

// Broadcast transmits from src to every neighbour in range. deliver
// runs once per receiver after the medium latency, on the receiver's
// owning cell — so it may freely mutate receiver state. It must be
// called from src's own cell (an event executing there, or setup code
// before Run).
func (r *Radio) Broadcast(src int, deliver func(dst int)) {
	srcCell := r.cellOf[src]
	c := r.se.Cell(srcCell)
	at := c.Engine().Now() + r.latency
	r.sent[srcCell]++
	for _, sp := range r.spans[r.spanOff[src]:r.spanOff[src+1]] {
		dc, rcv := int(sp.cell), r.rcv[sp.lo:sp.hi]
		if dc == srcCell {
			c.Engine().DeferAt(at, func() { r.deliverIn(dc, rcv, deliver) })
		} else {
			r.crossed[srcCell]++
			c.Send(dc, at, func() { r.deliverIn(dc, rcv, deliver) })
		}
	}
}

// deliverIn runs the payload for every receiver of one span, all owned
// by cell dc.
func (r *Radio) deliverIn(dc int, rcv []int32, deliver func(dst int)) {
	r.delivered[dc] += uint64(len(rcv))
	for _, n := range rcv {
		deliver(int(n))
	}
}

// Stats sums the per-cell counters. Call between Run windows (or after
// the run), not from inside concurrently-executing model code.
func (r *Radio) Stats() RadioStats {
	var s RadioStats
	for i := range r.sent {
		s.Broadcasts += r.sent[i]
		s.Deliveries += r.delivered[i]
		s.CrossEvents += r.crossed[i]
	}
	return s
}
