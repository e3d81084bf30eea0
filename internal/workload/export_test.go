package workload

// Depth returns the current call-stack depth.
func (w *Walker) Depth() int { return len(w.stack) }
