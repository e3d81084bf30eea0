package cache

// PQLen returns the current prefetch-queue occupancy.
func (c *ICache) PQLen() int { return c.pqLen }
