package cache

// PQLen returns the current prefetch-queue occupancy.
func (c *ICache) PQLen() int { return c.pqLen }

// Now returns the cache's internal clock (the latest time it has
// processed up to).
func (c *ICache) Now() uint64 { return c.now }
