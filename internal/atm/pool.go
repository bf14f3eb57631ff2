package atm

// Pool recycles Cell values so the simulated per-cell fast paths do not
// allocate.  It is a plain free list rather than sync.Pool: each pool belongs
// to one event kernel and is only ever touched by that kernel's goroutine
// (or by the coordinator at a barrier, with every kernel stopped), and a
// deterministic free list keeps benchmark numbers stable.
//
// A network built by core.NewNetwork has one pool per kernel, shared by
// every interface, switch and link on it: each takes its cells from the pool
// and returns every cell it finishes with, drops included, so the pool is
// conserved and its free list stays as large as the most cells ever in
// flight at once. Components built standalone keep a private pool.
type Pool struct {
	free []*Cell

	// Accounting, useful in tests to prove the hot path recycles.
	gets, puts, news uint64
	prefilled        uint64
}

// NewPool returns a pool pre-populated with n cells.
func NewPool(n int) *Pool {
	p := &Pool{free: make([]*Cell, 0, n), prefilled: uint64(n)}
	for i := 0; i < n; i++ {
		p.free = append(p.free, new(Cell))
	}
	return p
}

// Get returns a cell, reusing a recycled one when available. The cell's
// header is zeroed; the payload is left dirty (callers overwrite it).
func (p *Pool) Get() *Cell {
	p.gets++
	n := len(p.free)
	if n == 0 {
		p.news++
		return new(Cell)
	}
	c := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	c.Header = Header{}
	return c
}

// Put returns a cell to the pool. Putting nil is a no-op.
func (p *Pool) Put(c *Cell) {
	if c == nil {
		return
	}
	p.puts++
	p.free = append(p.free, c)
}

// Stats reports cumulative gets, puts and fresh allocations.
func (p *Pool) Stats() (gets, puts, news uint64) { return p.gets, p.puts, p.news }

// Outstanding reports the cells this pool has allocated (pre-populated or
// fresh) that are not in its free list: the cells currently held somewhere
// in the datapath. Once a conserving network drains, it reads 0; a negative
// value means cells from elsewhere were put here.
func (p *Pool) Outstanding() int64 {
	return int64(p.prefilled+p.news) - int64(len(p.free))
}
