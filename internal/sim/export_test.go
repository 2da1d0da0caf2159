package sim

import "math/rand"

// ShuffleSweeps makes every window's sweep hand out cells in a fresh
// order drawn from seed, so tests can check that results do not depend
// on the order cells are advanced in. The returned func restores the
// default order.
func ShuffleSweeps(seed int64) (restore func()) {
	rng := rand.New(rand.NewSource(seed))
	shuffleSweep = func(order []*Cell) {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return func() { shuffleSweep = nil }
}
