package bpred

// Redirect reports whether the front-end must be redirected at all.
func (o Outcome) Redirect() bool { return o.BTBMiss || o.DirMispredict || o.TargetMispredict }

// RASDepth returns the current RAS occupancy.
func (p *Predictor) RASDepth() int { return p.rasTop }

// CondAccuracy returns the direction-prediction accuracy so far.
func (p *Predictor) CondAccuracy() float64 {
	if p.CondLookups == 0 {
		return 1
	}
	return 1 - float64(p.DirMispredicts)/float64(p.CondLookups)
}
