package bpred

// Redirect reports whether the front-end must be redirected at all.
func (o Outcome) Redirect() bool { return o.BTBMiss || o.DirMispredict || o.TargetMispredict }

// RASDepth returns the current RAS occupancy.
func (p *Predictor) RASDepth() int { return p.rasTop }
